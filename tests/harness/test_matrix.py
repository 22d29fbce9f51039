"""Tests for the parallel check-matrix orchestrator."""

import json

import pytest

import repro.harness.matrix as matrix_module
from repro.core import limits
from repro.core.checker import CheckOptions
from repro.core.faults import FAULT_ENV
from repro.harness.matrix import (
    CATALOG_KIND,
    LITMUS_KIND,
    CellResult,
    MatrixCell,
    catalog_cells,
    default_jobs,
    litmus_cells,
    run_matrix,
    shard_cells,
)
from repro.fuzz import fuzz_cells
from repro.sat import native


def _verdicts(matrix):
    return [(r.cell.key, r.verdict) for r in matrix.results]


def _crash_every_attempt(cells) -> str:
    """A CHECKFENCE_FAULT value crashing the workers holding ``cells`` on
    every attempt the default retry budget allows."""
    return ",".join(f"worker-crash:{cell.key}:99" for cell in cells)


class TestCells:
    def test_catalog_cells_enumerate_cross_product(self):
        cells = catalog_cells(["msn"], models=["sc", "relaxed"], tests=["T0", "Ti2"])
        assert len(cells) == 4
        assert cells[0] == MatrixCell("msn", "T0", "sc")
        assert all(cell.kind == CATALOG_KIND for cell in cells)

    def test_catalog_cells_default_to_size_class(self):
        cells = catalog_cells(["msn", "lazylist"], models=["relaxed"], size="small")
        tests_by_impl = {}
        for cell in cells:
            tests_by_impl.setdefault(cell.implementation, []).append(cell.test)
        assert tests_by_impl["msn"] == ["T0", "Ti2", "Tpc2"]
        assert tests_by_impl["lazylist"] == ["Sac", "Sar", "Saa"]

    def test_litmus_cells_skip_shapes_without_observation(self):
        cells = litmus_cells(["sc"])
        names = {cell.test for cell in cells}
        assert "store-buffering" in names
        assert "iriw-fenced" not in names  # no observation of interest
        assert all(cell.kind == LITMUS_KIND for cell in cells)

    def test_cell_key(self):
        assert MatrixCell("msn", "T0", "sc").key == "msn/T0@sc"


class TestSharding:
    def test_shards_group_by_compiled_test_key(self):
        cells = catalog_cells(
            ["msn", "ms2"], models=["sc", "tso", "relaxed"], tests=["T0"]
        )
        shards = shard_cells(cells)
        assert len(shards) == 2  # (msn, T0) and (ms2, T0)
        assert all(len(shard.cells) == 3 for shard in shards)

    def test_shards_preserve_cell_positions(self):
        cells = catalog_cells(["msn"], models=["sc", "tso"], tests=["T0", "Ti2"])
        shards = shard_cells(cells)
        positions = sorted(
            position for shard in shards for position, _ in shard.cells
        )
        assert positions == list(range(len(cells)))


class TestDefaultJobs:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("CHECKFENCE_JOBS", raising=False)
        assert default_jobs() == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("CHECKFENCE_JOBS", "3")
        assert default_jobs() == 3

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("CHECKFENCE_JOBS", "many")
        with pytest.raises(ValueError):
            default_jobs()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_env_below_one_rejected(self, value, monkeypatch):
        """Not clamped to 1: a count below 1 is a mistake to report."""
        monkeypatch.setenv("CHECKFENCE_JOBS", value)
        with pytest.raises(ValueError, match="at least 1"):
            default_jobs()


class TestLitmusMatrix:
    def test_parallel_results_identical_to_serial(self):
        """The acceptance bar: jobs=N produces the same verdicts, in the
        same cell order, as the deterministic serial path."""
        cells = litmus_cells(["sc", "tso", "pso", "relaxed"])
        serial = run_matrix(cells, jobs=1)
        parallel = run_matrix(cells, jobs=4)
        assert _verdicts(serial) == _verdicts(parallel)
        assert serial.jobs == 1
        assert parallel.jobs > 1
        assert parallel.shard_count == serial.shard_count
        # Every parallel cell came from a worker process (the serial path
        # leaves worker == -1).  Which worker got which shard is timing-
        # dependent, so no assertion on worker diversity.
        assert all(r.worker >= 0 for r in parallel.results)
        assert all(r.worker == -1 for r in serial.results)

    def test_known_litmus_verdicts(self):
        matrix = run_matrix(litmus_cells(["sc"]), jobs=2)
        by_name = {r.cell.test: r.verdict for r in matrix.results}
        assert by_name["store-buffering"] == "forbidden"
        assert matrix.ok  # litmus cells never "fail"

    def test_cells_forward_the_solver_stack(self):
        """Litmus and catalog cells build their backend from the matrix
        options, so the spec reaches every cell; the recorded backend
        names the stack that ran, and the verdicts do not depend on it."""
        cells = litmus_cells(["sc", "relaxed"])[:4] + catalog_cells(
            ["msn"], models=["sc"], tests=["T0"]
        )
        options = CheckOptions(
            solver_backend=f"ipasir:{native.library_path()}"
        )
        library = run_matrix(cells, jobs=1, options=options)
        auto = run_matrix(
            cells, jobs=1, options=CheckOptions(solver_backend="auto")
        )
        assert {r.stats["backend"] for r in library.results} == {
            "ipasir(repro-cdcl)"
        }
        assert {r.stats["backend"] for r in auto.results} == {"native"}
        assert _verdicts(library) == _verdicts(auto)


    def test_unavailable_native_kernel_is_an_error_cell(
        self, broken_native_build
    ):
        """A library caller on a machine that cannot build the kernel gets
        one ERROR cell per check, naming the reason, not a crash."""
        cells = litmus_cells(["sc"])[:1] + catalog_cells(
            ["msn"], models=["sc"], tests=["T0"]
        )
        matrix = run_matrix(cells, jobs=1)
        assert [r.verdict for r in matrix.results] == ["ERROR", "ERROR"]
        assert all(broken_native_build in r.error for r in matrix.results)


class TestCatalogMatrix:
    def test_serial_matches_parallel_on_catalog_cells(self):
        # Two tests make two shards, so the pool really runs.
        cells = catalog_cells(
            ["msn"], models=["sc", "relaxed"], tests=["T0", "Ti2"]
        )
        serial = run_matrix(cells, jobs=1)
        parallel = run_matrix(cells, jobs=2)
        assert parallel.shard_count == 2
        assert _verdicts(serial) == _verdicts(parallel)
        for left, right in zip(serial.results, parallel.results):
            assert left.stats["cnf_clauses"] == right.stats["cnf_clauses"]
            assert (
                left.stats["observation_set_size"]
                == right.stats["observation_set_size"]
            )
            # The CheckResult crosses the process boundary, minus the
            # mined observation set (blanked to keep the queue light).
            assert right.result is not None
            assert right.result.specification is None
            assert left.result.specification is not None

    def test_shard_batching_reuses_compilation_and_mining(self):
        """Inside one shard (the compiled-test key), the test is compiled
        once and its specification mined once however many models run."""
        cells = catalog_cells(["msn"], models=["sc", "tso", "relaxed"], tests=["T0"])
        matrix = run_matrix(cells, jobs=1)
        assert matrix.shard_count == 1
        cache = matrix.cache_totals()
        assert cache["compile"] == 1
        assert cache["mine"] == 1
        assert cache["encode"] == 3  # one encoding per memory model
        assert "compiled 1x, spec mined 1x" in matrix.summary()

    def test_failing_cell_reported(self):
        cells = catalog_cells(["msn-unfenced"], models=["relaxed"], tests=["T0"])
        matrix = run_matrix(cells, jobs=1)
        assert not matrix.ok
        (result,) = matrix.results
        assert result.verdict == "FAIL"
        assert result.counterexample
        assert not result.error

    def test_unknown_implementation_is_soft_error(self):
        cells = [
            MatrixCell("no-such-impl", "T0", "sc"),
            MatrixCell("msn", "T0", "sc"),
        ]
        matrix = run_matrix(cells, jobs=1)
        bad, good = matrix.results
        assert bad.verdict == "ERROR" and "KeyError" in bad.error
        assert good.verdict == "PASS"
        assert not matrix.ok

    def test_a_search_a_budget_stopped_is_an_oom_cell(
        self, poll_only_memory_spike
    ):
        """snark/Dq FAILs under relaxed; memory over the cap at the
        kernel's first poll makes the cell OOM, never a PASS."""
        cells = catalog_cells(["snark"], models=["relaxed"], tests=["Dq"])
        with limits.deadline_scope(poll_only_memory_spike):
            matrix = run_matrix(cells, jobs=1)
        assert poll_only_memory_spike.spiked
        assert [r.verdict for r in matrix.results] == ["OOM"]

    def test_as_dict_is_json_safe(self):
        cells = catalog_cells(["msn"], models=["sc"], tests=["T0"])
        matrix = run_matrix(cells, jobs=1)
        payload = json.loads(json.dumps(matrix.as_dict()))
        assert payload["cells"][0]["verdict"] == "PASS"
        assert payload["cache"]["mine"] == 1


class TestCellTiming:
    """``run_cell`` reads the clock twice per cell, whichever way the cell
    ends, and ``seconds`` is the difference of the two readings."""

    class Clock:
        def __init__(self):
            self.reads = 0

        def perf_counter(self):
            self.reads += 1
            return 2.5 * self.reads

    @pytest.fixture
    def clock(self, monkeypatch):
        clock = self.Clock()
        monkeypatch.setattr(matrix_module, "time", clock)
        return clock

    @staticmethod
    def _timed(clock, cell, **options):
        runner = matrix_module._Runner(CheckOptions(**options))
        result = runner.run_cell(cell)
        assert (clock.reads, result.seconds) == (2, 2.5)
        return result

    def test_a_checked_cell(self, clock):
        cell = catalog_cells(["msn"], models=["sc"], tests=["T0"])[0]
        assert self._timed(clock, cell).verdict == "PASS"

    def test_a_fuzz_cell(self, clock):
        """The fuzz harness keeps no clock of its own."""
        cell = fuzz_cells(["x=1 r0=y | y=1 r1=x"], ["sc"])[0]
        assert self._timed(clock, cell).verdict == "agree"

    def test_a_cell_served_from_the_store(self, clock, tmp_path, monkeypatch):
        monkeypatch.setenv("CHECKFENCE_CACHE_DIR", str(tmp_path))
        cell = litmus_cells(["sc"])[0]
        matrix_module._Runner(CheckOptions(store=True)).run_cell(cell)
        clock.reads = 0
        assert self._timed(clock, cell, store=True).stats["store_hit"]

    def test_a_cell_its_budget_stopped(self, clock, monkeypatch):
        cell = litmus_cells(["sc"])[0]
        monkeypatch.setenv(FAULT_ENV, f"cell-timeout:{cell.key}")
        assert self._timed(clock, cell).verdict == "TIMEOUT"

    def test_a_cell_that_raised(self, clock):
        cell = MatrixCell("no-such-impl", "T0", "sc")
        assert self._timed(clock, cell).verdict == "ERROR"


class TestWorkerCrash:
    def test_crashed_worker_reports_failed_cell_instead_of_hanging(
        self, monkeypatch
    ):
        cells = litmus_cells(["relaxed"])
        victim = cells[2]
        monkeypatch.setenv(FAULT_ENV, _crash_every_attempt([victim]))
        matrix = run_matrix(cells, jobs=2)
        assert not matrix.ok
        by_key = {r.cell.key: r for r in matrix.results}
        crashed = by_key[victim.key]
        # The fault crashes every attempt, so the cell exhausts its
        # retries and is quarantined with the first-class CRASHED verdict
        # (not ERROR: the harness ran fine, the worker died).
        assert crashed.verdict == "CRASHED"
        assert "crashed" in crashed.error
        assert crashed in matrix.degraded
        # The surviving worker still finished every other shard.
        healthy = [r for r in matrix.results if r.cell.key != victim.key]
        assert all(not r.error and not r.degraded for r in healthy)

    def test_all_workers_crashing_still_terminates(self, monkeypatch):
        """When every worker dies on every attempt, each shard exhausts
        its retries and is quarantined instead of the run hanging."""
        cells = litmus_cells(["sc", "tso", "pso", "relaxed"])
        monkeypatch.setenv(FAULT_ENV, _crash_every_attempt(cells))
        matrix = run_matrix(cells, jobs=2)
        assert not matrix.ok
        assert len(matrix.degraded) == len(cells)
        assert all(r.degraded == "CRASHED" for r in matrix.degraded)
        assert all("crashed" in r.error for r in matrix.degraded)


class TestInterrupt:
    """Ctrl-C during a matrix run must tear the pool down, not orphan it.

    The ``interrupt:<key>`` fault raises KeyboardInterrupt in the parent
    the moment the chosen cell's result is recorded — the deterministic
    stand-in for a user interrupt mid-run.
    """

    def test_parallel_interrupt_terminates_workers(self, monkeypatch):
        import multiprocessing

        cells = litmus_cells(["sc", "relaxed"])
        monkeypatch.setenv(FAULT_ENV, f"interrupt:{cells[1].key}")
        before = {id(p) for p in multiprocessing.active_children()}
        with pytest.raises(KeyboardInterrupt):
            run_matrix(cells, jobs=2)
        spawned = [
            p for p in multiprocessing.active_children()
            if id(p) not in before
        ]
        for process in spawned:
            process.join(timeout=10)
        assert not any(p.is_alive() for p in spawned), (
            "matrix pool left live workers behind after an interrupt"
        )

    def test_serial_interrupt_propagates(self, monkeypatch):
        cells = litmus_cells(["sc"])
        monkeypatch.setenv(FAULT_ENV, f"interrupt:{cells[0].key}")
        with pytest.raises(KeyboardInterrupt):
            run_matrix(cells, jobs=1)

    def test_cli_maps_interrupt_to_exit_130(self, monkeypatch, capsys):
        from repro.cli import main
        from repro.fuzz import fuzz_cells
        from repro.fuzz.generator import generate_corpus

        spec = generate_corpus(seed=5, budget=1)[0].spec()
        cell = fuzz_cells([spec], ["sc"])[0]
        monkeypatch.setenv(FAULT_ENV, f"interrupt:{cell.key}")
        code = main([
            "fuzz", "--budget", "1", "--seed", "5", "--models", "sc",
            "--jobs", "1", "--quiet",
        ])
        assert code == 130
        assert "interrupted" in capsys.readouterr().err


class TestSerialCellResults:
    def test_serial_cells_carry_full_check_results(self):
        cells = catalog_cells(["msn"], models=["sc", "relaxed"], tests=["T0"])
        results = [c.result for c in run_matrix(cells, jobs=1).results]
        assert [r.memory_model for r in results] == ["sc", "relaxed"]
        assert all(r.passed for r in results)
        # Same session across models: one shared specification object.
        assert len({id(r.specification) for r in results}) == 1


class TestCliMatrix:
    def test_matrix_command(self, capsys):
        from repro.cli import main

        code = main([
            "matrix", "--impls", "msn", "--tests", "T0",
            "--models", "sc,relaxed", "--jobs", "2", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "2 cells" in out
        # One test over two models: one warm session compiles and mines
        # it once.
        assert "compiled 1x, spec mined 1x" in out

    def test_matrix_command_failure_exit_code(self, capsys):
        from repro.cli import main

        code = main([
            "matrix", "--impls", "msn-unfenced", "--tests", "T0",
            "--models", "sc,relaxed", "--quiet",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" in out

    def test_matrix_json_stdout(self, capsys):
        from repro.cli import main

        code = main([
            "matrix", "--litmus", "--models", "sc", "--jobs", "2",
            "--quiet", "--json", "-",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert len(payload["cells"]) == 6

    def test_matrix_litmus_table(self, capsys):
        from repro.cli import main

        assert main([
            "matrix", "--litmus", "--models", "sc", "--jobs", "2", "--quiet",
        ]) == 0
        out = capsys.readouterr().out
        assert "store-buffering" in out and "forbidden" in out
