"""Fault-tolerance tests for the matrix orchestrator.

These exercise the CHECKFENCE_FAULT injection framework end-to-end:
crashed workers whose shards are retried (and must be verdict-identical
to a clean run), hung workers reaped by the watchdog, per-cell deadline
expiry surfacing as TIMEOUT, and resuming a killed run through the
persistent store.

The suite runs on small litmus matrices to stay fast; timing-dependent
assertions are kept generous because CI may be a single loaded core.
"""

import json
import multiprocessing

import pytest

from repro.core import faults, limits
from repro.core.checker import CheckOptions
from repro.core.store import CELL_KIND, VerdictStore
from repro.fuzz import fuzz_cells
from repro.harness.matrix import (
    WORKER_TIMEOUT_ENV,
    catalog_cells,
    litmus_cells,
    run_matrix,
)

FAULT_ENV = faults.FAULT_ENV


def _verdicts(matrix):
    return [(r.cell.key, r.verdict) for r in matrix.results]


def _store_hits(matrix):
    return matrix.cache_totals()["store_hits"]


def _spawned_since(before):
    return [
        p for p in multiprocessing.active_children() if id(p) not in before
    ]


class TestCrashRetry:
    def test_crashed_shard_is_retried_verdict_identically(self, monkeypatch):
        """A worker-crash fault bounded to attempt 1: the parent re-queues
        the shard, the retry succeeds, and the final matrix is
        indistinguishable from a clean run."""
        cells = litmus_cells(["sc", "relaxed"])
        clean = run_matrix(cells, jobs=2)
        monkeypatch.setenv(FAULT_ENV, f"worker-crash:{cells[3].key}")
        faulty = run_matrix(cells, jobs=2)
        assert _verdicts(faulty) == _verdicts(clean)
        assert faulty.ok
        assert not faulty.degraded
        assert all(not r.error for r in faulty.results)

    def test_multiple_crash_faults_all_recover(self, monkeypatch):
        cells = litmus_cells(["sc", "tso"])
        clean = run_matrix(cells, jobs=2)
        directives = ",".join(
            f"worker-crash:{cell.key}" for cell in (cells[0], cells[-1])
        )
        monkeypatch.setenv(FAULT_ENV, directives)
        faulty = run_matrix(cells, jobs=2)
        assert _verdicts(faulty) == _verdicts(clean)
        assert faulty.ok

    def test_crash_every_attempt_quarantines_as_crashed(self, monkeypatch):
        cells = litmus_cells(["sc"])
        victim = cells[1]
        monkeypatch.setenv(FAULT_ENV, f"worker-crash:{victim.key}:99")
        matrix = run_matrix(cells, jobs=2)
        by_key = {r.cell.key: r for r in matrix.results}
        assert by_key[victim.key].verdict == limits.CRASHED
        assert "giving up after" in by_key[victim.key].error
        assert not matrix.ok
        healthy = [r for r in matrix.results if r.cell.key != victim.key]
        assert all(not r.degraded and not r.error for r in healthy)


class TestHangWatchdog:
    def test_hung_worker_is_killed_retried_and_not_leaked(self, monkeypatch):
        """A worker that ignores SIGTERM and sleeps on its shard: the
        watchdog reaps it (terminate → kill escalation), the shard is
        retried, and no process outlives the run."""
        cells = litmus_cells(["sc", "relaxed"])
        clean = run_matrix(cells, jobs=2)
        monkeypatch.setenv(FAULT_ENV, f"worker-hang:{cells[0].key}")
        monkeypatch.setenv(WORKER_TIMEOUT_ENV, "3.0")
        before = {id(p) for p in multiprocessing.active_children()}
        matrix = run_matrix(cells, jobs=2)
        assert _verdicts(matrix) == _verdicts(clean)
        assert matrix.ok
        for process in _spawned_since(before):
            process.join(timeout=10)
        assert not any(p.is_alive() for p in _spawned_since(before)), (
            "matrix pool leaked a live worker after a hang injection"
        )


    @pytest.mark.parametrize("seconds", ["1e7", "1e300"])
    def test_a_timeout_past_the_longest_wait_runs_like_any(
        self, monkeypatch, seconds
    ):
        """The pool's ``wait`` cannot sleep past ``INT_MAX`` milliseconds
        (about 24.8 days), so each sleep is capped: a larger watchdog
        timeout leaves a two-shard pool run verdict-identical to the
        serial one instead of raising ``OverflowError``."""
        cells = catalog_cells(["msn"], ["sc"], tests=["T0", "Ti2"])
        serial = run_matrix(cells, jobs=1)
        monkeypatch.setenv(WORKER_TIMEOUT_ENV, seconds)
        pooled = run_matrix(cells, jobs=2)
        assert pooled.jobs == 2 and len(pooled.shard_stats) == 2
        assert _verdicts(pooled) == _verdicts(serial)
        assert pooled.ok


class TestExternalKill:
    def test_sigkilled_workers_are_replaced_and_idle_deaths_cost_nothing(
        self, monkeypatch
    ):
        """Workers SIGKILLed from outside, as the OOM killer would: one
        worker hangs on its shard (no watchdog), and once every other cell
        is recorded the progress callback kills every live worker.  The
        hung shard is retried once and the run ends verdict-identical;
        the other worker died holding no unfinished cell, so no shard is
        charged for it."""
        cells = litmus_cells(["sc", "relaxed"])
        clean = run_matrix(cells, jobs=2)
        victim = cells[0]
        hung = [cell for cell in cells if cell.test == victim.test]
        monkeypatch.setenv(FAULT_ENV, f"worker-hang:{victim.key}")
        monkeypatch.delenv(WORKER_TIMEOUT_ENV, raising=False)
        before = {id(p) for p in multiprocessing.active_children()}

        def kill_all_workers(done, total, _result):
            if done == total - len(hung):
                for process in _spawned_since(before):
                    process.kill()
                    process.join(timeout=10)

        matrix = run_matrix(cells, jobs=2, progress=kill_all_workers)
        assert _verdicts(matrix) == _verdicts(clean)
        assert matrix.ok
        attempts = {}
        for stats in matrix.shard_stats:
            assert stats["shard"] not in attempts
            attempts[stats["shard"]] = stats["attempt"]
        assert attempts.pop(0) == 2
        assert attempts and all(a == 1 for a in attempts.values())
        for process in _spawned_since(before):
            process.join(timeout=10)
        assert not any(p.is_alive() for p in _spawned_since(before))


class TestCellTimeout:
    def test_cell_timeout_fault_degrades_to_timeout_verdict(self, monkeypatch):
        cells = litmus_cells(["sc"])
        victim = cells[0]
        monkeypatch.setenv(FAULT_ENV, f"cell-timeout:{victim.key}")
        matrix = run_matrix(cells, jobs=1)
        by_key = {r.cell.key: r for r in matrix.results}
        timed_out = by_key[victim.key]
        assert timed_out.verdict == limits.TIMEOUT
        assert timed_out.degraded == limits.TIMEOUT
        assert not timed_out.ok
        # TIMEOUT is degraded, not an error: matrix.errors must not list
        # it, matrix.degraded must, and the summary must name it.
        assert timed_out not in matrix.errors
        assert timed_out in matrix.degraded
        assert "TIMEOUT" in matrix.summary()
        assert not matrix.ok
        healthy = [r for r in matrix.results if r.cell.key != victim.key]
        assert all(r.ok for r in healthy)

    def test_cell_timeout_fault_works_in_parallel_mode(self, monkeypatch):
        cells = litmus_cells(["sc", "tso"])
        victim = cells[-1]
        monkeypatch.setenv(FAULT_ENV, f"cell-timeout:{victim.key}")
        matrix = run_matrix(cells, jobs=2)
        by_key = {r.cell.key: r for r in matrix.results}
        assert by_key[victim.key].verdict == limits.TIMEOUT
        assert len(matrix.degraded) == 1

    def test_degraded_cells_round_trip_through_json(self, monkeypatch):
        cells = litmus_cells(["sc"])
        monkeypatch.setenv(FAULT_ENV, f"cell-timeout:{cells[0].key}")
        matrix = run_matrix(cells, jobs=1)
        payload = json.loads(json.dumps(matrix.as_dict()))
        assert payload["ok"] is False
        assert payload["cells"][0]["verdict"] == "TIMEOUT"
        assert payload["cells"][0]["degraded"] == "TIMEOUT"


@pytest.fixture
def stored(tmp_path, monkeypatch):
    """Matrix options with the persistent store on, in a throwaway
    directory."""
    monkeypatch.setenv("CHECKFENCE_CACHE_DIR", str(tmp_path / "store"))
    return CheckOptions(store=True)


#: Small matrices of the two cell kinds the matrix stores itself.
CELL_SETS = {
    "litmus": lambda: litmus_cells(["sc"]),
    "fuzz": lambda: fuzz_cells(
        ["x=1 r0=y | y=1 r1=x", "x=1 y=1 | r0=y r1=x"], ["sc", "tso"]
    ),
}


class TestResumeThroughStore:
    """Rerunning a campaign against the same store serves the cells it
    finished and recomputes the rest, verdict-identically."""

    def test_store_records_every_cell(self, stored):
        cells = litmus_cells(["sc"])
        matrix = run_matrix(cells, jobs=1, options=stored)
        assert matrix.ok
        assert VerdictStore().stats()["kinds"] == {CELL_KIND: len(cells)}
        assert matrix.cache_totals()["store_misses"] == len(cells)

    def test_rerun_serves_finished_cells_verdict_identically(self, stored):
        cells = litmus_cells(["sc", "tso"])
        clean = run_matrix(cells, jobs=1)
        # A run that died after finishing its first three cells.
        run_matrix(cells[:3], jobs=1, options=stored)
        rerun = run_matrix(cells, jobs=1, options=stored)
        assert _verdicts(rerun) == _verdicts(clean)
        assert _store_hits(rerun) == 3
        served = [r.cell for r in rerun.results if r.stats.get("store_hit")]
        assert served == cells[:3]
        assert "3 store hits" in rerun.summary()
        # Every cell is stored now: a second rerun computes nothing.
        again = run_matrix(cells, jobs=1, options=stored)
        assert _store_hits(again) == len(cells)
        assert _verdicts(again) == _verdicts(clean)

    def test_rerun_works_in_parallel_mode(self, stored):
        cells = litmus_cells(["sc", "relaxed"])
        clean = run_matrix(cells, jobs=1)
        run_matrix(cells[:2], jobs=1, options=stored)
        rerun = run_matrix(cells, jobs=2, options=stored)
        assert rerun.jobs == 2
        assert _verdicts(rerun) == _verdicts(clean)
        assert _store_hits(rerun) == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_interrupted_run_reruns_to_clean_verdicts(
        self, stored, monkeypatch, jobs
    ):
        """The acceptance path: a run dies mid-matrix (injected Ctrl-C),
        the store holds the cells it finished, and a rerun serves them and
        completes the rest with verdicts identical to an uninterrupted
        run."""
        cells = litmus_cells(["sc", "tso"])
        clean = run_matrix(cells, jobs=1)
        monkeypatch.setenv(FAULT_ENV, f"interrupt:{cells[4].key}")
        with pytest.raises(KeyboardInterrupt):
            run_matrix(cells, jobs=jobs, options=stored)
        monkeypatch.delenv(FAULT_ENV)
        rerun = run_matrix(cells, jobs=jobs, options=stored)
        assert _verdicts(rerun) == _verdicts(clean)
        if jobs == 1:
            # Cells 0-4 finished, the interrupted one included (a cell is
            # stored before it is recorded).
            assert _store_hits(rerun) == 5
        else:
            assert _store_hits(rerun) >= 1

    @pytest.mark.parametrize("kind", sorted(CELL_SETS))
    def test_timeout_cell_is_never_stored(self, stored, monkeypatch, kind):
        """A TIMEOUT is recomputed on the rerun: a budget is a property of
        one run, and the next run may have a better one."""
        cells = CELL_SETS[kind]()
        victim = cells[2]
        monkeypatch.setenv(FAULT_ENV, f"cell-timeout:{victim.key}")
        first = run_matrix(cells, jobs=1, options=stored)
        assert [r.cell for r in first.degraded] == [victim]
        monkeypatch.delenv(FAULT_ENV)
        rerun = run_matrix(cells, jobs=1, options=stored)
        by_key = {r.cell.key: r for r in rerun.results}
        assert by_key[victim.key].verdict not in limits.DEGRADED_VERDICTS
        assert not by_key[victim.key].stats.get("store_hit")
        assert _store_hits(rerun) == len(cells) - 1

    @pytest.mark.parametrize("kind", sorted(CELL_SETS))
    def test_error_cell_is_never_stored(self, stored, monkeypatch, kind):
        cells = CELL_SETS[kind]()
        monkeypatch.setenv(FAULT_ENV, "solver-raise:1")
        faults.reset_solver_counter()
        first = run_matrix(cells, jobs=1, options=stored)
        (failed,) = first.errors
        assert "injected solver fault" in failed.error
        monkeypatch.delenv(FAULT_ENV)
        rerun = run_matrix(cells, jobs=1, options=stored)
        by_key = {r.cell.key: r for r in rerun.results}
        assert not by_key[failed.cell.key].error
        assert not by_key[failed.cell.key].stats.get("store_hit")
        assert _store_hits(rerun) == len(cells) - 1

    def test_store_io_fault_completes_verdict_identically(
        self, stored, monkeypatch
    ):
        """Every sqlite operation failing turns the store into misses: the
        stored matrix still completes, verdict for verdict."""
        cells = litmus_cells(["sc", "relaxed"])
        clean = run_matrix(cells, jobs=1)
        monkeypatch.setenv(FAULT_ENV, "store-io")
        faulty = run_matrix(cells, jobs=1, options=stored)
        assert _verdicts(faulty) == _verdicts(clean)
        assert _store_hits(faulty) == 0
        assert not faulty.errors


class TestAcceptanceScenario:
    def test_crash_plus_timeout_run_completes_and_matches_clean(
        self, tmp_path, monkeypatch
    ):
        """ISSUE acceptance: one matrix run with an injected worker crash
        AND a deadline-expired cell completes without hanging; the crashed
        cell's retry is verdict-identical to a clean run; the timed-out
        cell is TIMEOUT (not FAIL)."""
        cells = litmus_cells(["sc", "relaxed"])
        clean = run_matrix(cells, jobs=2)
        crash_victim, timeout_victim = cells[1], cells[-2]
        monkeypatch.setenv(
            FAULT_ENV,
            f"worker-crash:{crash_victim.key},"
            f"cell-timeout:{timeout_victim.key}",
        )
        matrix = run_matrix(cells, jobs=2)
        by_key = {r.cell.key: r for r in matrix.results}
        clean_by_key = {r.cell.key: r for r in clean.results}
        assert (
            by_key[crash_victim.key].verdict
            == clean_by_key[crash_victim.key].verdict
        )
        assert by_key[timeout_victim.key].verdict == limits.TIMEOUT
        assert by_key[timeout_victim.key].verdict != "FAIL"
        for cell in cells:
            if cell.key == timeout_victim.key:
                continue
            assert by_key[cell.key].verdict == clean_by_key[cell.key].verdict
        assert len(matrix.degraded) == 1
