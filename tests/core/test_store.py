"""Tests for the persistent on-disk result store (:mod:`repro.core.store`)."""

import re
import sqlite3

import pytest

from repro.cli import main
from repro.core import store as store_module
from repro.core.checker import CheckOptions
from repro.core.session import CheckSession
from repro.core.store import (
    SPEC_KIND,
    VERDICT_KIND,
    VerdictStore,
    content_key,
    open_store,
)
from repro.datatypes.registry import get_implementation
from repro.fuzz import fuzz_cells
from repro.harness.catalog import get_test
from repro.harness.matrix import litmus_cells, run_matrix
from repro.sat import native


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point the store at a throwaway directory for the test."""
    path = tmp_path / "cf-cache"
    monkeypatch.setenv("CHECKFENCE_CACHE_DIR", str(path))
    return path


def _check(impl_name, test_name, model, **options):
    implementation = get_implementation(impl_name)
    test = get_test("queue", test_name)
    session = CheckSession(implementation, CheckOptions(**options))
    result = session.check(test, model)
    return session, result


class TestKnobResolution:
    def test_open_store(self, cache_dir):
        assert open_store(False) is None
        store = open_store(True)
        assert isinstance(store, VerdictStore)
        assert store.path.parent == cache_dir

    def test_session_default_off(self, cache_dir):
        session, result = _check("msn", "T0", "sc")
        assert session.store is None
        assert result.stats.store_hit is False
        assert not (cache_dir / "store.sqlite").exists()


class TestVerdictRoundtrip:
    def test_second_session_serves_from_store(self, cache_dir):
        session1, cold = _check("msn", "T0", "sc", store=True)
        assert cold.stats.store_hit is False
        assert session1.cache_stats["store_hits"] == 0
        assert session1.cache_stats["store_misses"] == 2

        session2, warm = _check("msn", "T0", "sc", store=True)
        assert warm.stats.store_hit is True
        assert session2.cache_stats["store_hits"] == 1
        assert session2.cache_stats["store_misses"] == 0
        # The warm check skipped the whole pipeline.
        assert session2.cache_stats["compile"] == 0
        assert session2.cache_stats["encode"] == 0

        assert warm.passed == cold.passed
        assert warm.notes == cold.notes
        assert warm.loop_bounds == cold.loop_bounds
        assert warm.stats.cnf_clauses == cold.stats.cnf_clauses
        assert warm.stats.cnf_variables == cold.stats.cnf_variables
        assert warm.stats.observation_set_size == cold.stats.observation_set_size

    def test_fail_verdict_restores_counterexample_text(self, cache_dir):
        _, cold = _check("msn-unfenced", "T0", "relaxed", store=True)
        _, warm = _check("msn-unfenced", "T0", "relaxed", store=True)
        assert cold.passed is False and warm.passed is False
        assert warm.stats.store_hit is True
        assert warm.counterexample is not None
        assert warm.counterexample.format() == cold.counterexample.format()
        # summary() renders through the restored shim.
        assert "FAIL" in warm.summary()

    def test_spec_cell_hits_even_when_verdict_misses(self, cache_dir):
        _check("msn", "T0", "sc", store=True)
        # Different model: verdict cell misses, spec cell (model-independent)
        # hits, so the serial-model mining is skipped.
        session, result = _check("msn", "T0", "tso", store=True)
        assert result.stats.store_hit is False
        assert session.cache_stats["store_hits"] == 1  # spec
        assert session.cache_stats["mine"] == 0
        # The restored spec equals a freshly mined one.
        _, fresh = _check("msn", "T0", "tso", store=False)
        assert (
            result.specification.observations
            == fresh.specification.observations
        )


class TestKeySensitivity:
    def test_model_changes_key(self, cache_dir):
        _check("msn", "T0", "sc", store=True)
        session, result = _check("msn", "T0", "pso", store=True)
        assert result.stats.store_hit is False

    def test_option_changes_key(self, cache_dir):
        _check("msn", "T0", "sc", store=True)
        session, result = _check(
            "msn", "T0", "sc", store=True, use_range_analysis=False
        )
        assert result.stats.store_hit is False
        assert session.cache_stats["store_hits"] == 0

    def test_implementation_changes_key(self, cache_dir):
        _check("msn", "T0", "sc", store=True)
        session, result = _check("ms2", "T0", "sc", store=True)
        assert result.stats.store_hit is False

    def test_backend_does_not_change_key(self, cache_dir):
        """solver_backend is verdict-preserving by construction
        (differentially gated in CI), so cells are shared across backends
        — the point of a content-addressed cache."""
        _check("msn", "T0", "sc", store=True,
               solver_backend=f"ipasir:{native.library_path()}")
        _, warm = _check("msn", "T0", "sc", store=True, solver_backend="auto")
        assert warm.stats.store_hit is True

    def test_native_kernel_source_changes_key(self, tmp_path, monkeypatch):
        """The default solver is C: editing ``cdcl.c`` must move every
        key, like editing any Python file of the checker."""
        package = tmp_path / "repro"
        (package / "core").mkdir(parents=True)
        (package / "core" / "store.py").write_text("# store\n")
        kernel = package / "sat" / "native" / "cdcl.c"
        kernel.parent.mkdir(parents=True)
        kernel.write_text("int solve(void) { return 0; }\n")
        monkeypatch.setattr(
            store_module, "__file__", str(package / "core" / "store.py")
        )
        monkeypatch.setattr(store_module, "_code_fingerprint", None)
        before = store_module.code_fingerprint()
        kernel.write_text("int solve(void) { return 1; }\n")
        monkeypatch.setattr(store_module, "_code_fingerprint", None)
        assert store_module.code_fingerprint() != before

    def test_content_key_is_deterministic(self):
        parts = ["impl", "source", ["T0", "init", "threads"], "sc", [2, True]]
        assert content_key(VERDICT_KIND, parts) == content_key(
            VERDICT_KIND, parts
        )
        assert content_key(VERDICT_KIND, parts) != content_key(
            SPEC_KIND, parts
        )


class TestMatrixCellKeys:
    """Litmus, fuzz and engines cells are keyed by the cell and by the
    solver stack their SAT engine ran, because the stack is what a
    differential cell tests: unlike a catalog verdict, a cell stored
    under one stack is never served to another."""

    SPEC = "x=1 r0=y | y=1 r1=x"

    @staticmethod
    def _hits(cells, **options) -> int:
        matrix = run_matrix(
            cells, jobs=1, options=CheckOptions(store=True, **options)
        )
        assert matrix.ok
        return matrix.cache_totals()["store_hits"]

    def test_same_cell_and_stack_is_served(self, cache_dir):
        cells = fuzz_cells([self.SPEC], ["sc"])
        assert self._hits(cells) == 0
        assert self._hits(cells) == 1

    def test_other_solver_backend_misses(self, cache_dir):
        cells = fuzz_cells([self.SPEC], ["sc"])
        library = f"ipasir:{native.library_path()}"
        assert self._hits(cells, solver_backend=library) == 0
        assert self._hits(cells, solver_backend="auto") == 0

    def test_other_engines_miss(self, cache_dir):
        assert self._hits(fuzz_cells([self.SPEC], ["sc"])) == 0
        assert self._hits(fuzz_cells([self.SPEC], ["sc"], engines="all")) == 0

    def test_other_model_misses(self, cache_dir):
        assert self._hits(litmus_cells(["sc"])) == 0
        assert self._hits(litmus_cells(["tso"])) == 0
        assert self._hits(litmus_cells(["sc"])) == len(litmus_cells(["sc"]))


class TestRobustness:
    def test_corrupted_database_degrades_to_misses(self, cache_dir):
        _check("msn", "T0", "sc", store=True)
        db = cache_dir / "store.sqlite"
        db.write_bytes(b"this is not a sqlite database, sorry")
        for side in ("-wal", "-shm"):
            extra = cache_dir / ("store.sqlite" + side)
            if extra.exists():
                extra.unlink()
        session, result = _check("msn", "T0", "sc", store=True)
        assert result.passed is True
        assert result.stats.store_hit is False

    def test_dropping_a_store_closes_its_connection(self, cache_dir):
        """sqlite3 keeps a connection in a reference cycle, so without an
        explicit close it outlives its store until the cyclic collector
        runs, and a later store on the same file could read through it."""
        store = VerdictStore()
        store.put("k", VERDICT_KIND, {"passed": True})
        connection = store._conn
        del store
        with pytest.raises(sqlite3.ProgrammingError):
            connection.execute("SELECT 1")

    def test_clear_resets_broken_flag(self, cache_dir):
        store = VerdictStore()
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_bytes(b"garbage")
        assert store.get("missing") is None  # marks broken
        store.clear()
        store.put("k", VERDICT_KIND, {"passed": True})
        assert store.get("k") == {"passed": True}

    def test_stats_and_clear(self, cache_dir):
        store = VerdictStore()
        stats = store.stats()
        assert stats["exists"] is False and stats["cells"] == 0
        store.put("k1", VERDICT_KIND, {"passed": True})
        store.put("k2", SPEC_KIND, {"labels": []})
        stats = store.stats()
        assert stats["cells"] == 2
        assert stats["kinds"] == {VERDICT_KIND: 1, SPEC_KIND: 1}
        assert stats["size_bytes"] > 0
        assert store.clear() == 2
        assert store.stats()["cells"] == 0
        assert not store.path.exists()

    def test_database_is_sqlite(self, cache_dir):
        store = VerdictStore()
        store.put("k", VERDICT_KIND, {"passed": True})
        store.close()
        conn = sqlite3.connect(str(store.path))
        rows = conn.execute("SELECT key, kind FROM cells").fetchall()
        conn.close()
        assert rows == [("k", VERDICT_KIND)]

    def test_wal_and_busy_timeout_enabled(self, cache_dir):
        store = VerdictStore()
        store.put("k", VERDICT_KIND, {"passed": True})
        conn = store._connection()
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
        assert conn.execute("PRAGMA busy_timeout").fetchone()[0] >= 1000


def _contending_writer(path, worker, count):
    store = VerdictStore(path)
    for i in range(count):
        store.put(f"w{worker}-k{i}", VERDICT_KIND, {"worker": worker, "i": i})
    store.close()


class TestConcurrentWriters:
    def test_parallel_writers_do_not_corrupt_or_lose_rows(self, tmp_path):
        """Several matrix workers share one --store: concurrent inserts
        must all land (WAL + busy_timeout), never raise, and leave a
        readable database."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        ctx = multiprocessing.get_context("fork")
        path = tmp_path / "shared.sqlite"
        writers, per_writer = 4, 25
        processes = [
            ctx.Process(target=_contending_writer, args=(path, w, per_writer))
            for w in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=60)
        assert all(p.exitcode == 0 for p in processes)
        store = VerdictStore(path)
        assert store.stats()["cells"] == writers * per_writer
        for w in range(writers):
            assert store.get(f"w{w}-k0") == {"worker": w, "i": 0}

    def test_forked_child_reconnects_instead_of_sharing(self, tmp_path):
        """The per-PID connection guard: a child inheriting the store
        object must open its own connection, not reuse the parent's."""
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        ctx = multiprocessing.get_context("fork")
        store = VerdictStore(tmp_path / "shared.sqlite")
        store.put("parent", VERDICT_KIND, {"who": "parent"})

        def child():
            store.put("child", VERDICT_KIND, {"who": "child"})

        process = ctx.Process(target=child)
        process.start()
        process.join(timeout=30)
        assert process.exitcode == 0
        assert store.get("child") == {"who": "child"}


class TestStoreFaultInjection:
    def test_store_io_fault_degrades_to_misses(self, tmp_path, monkeypatch):
        from repro.core import faults

        store = VerdictStore(tmp_path / "s.sqlite")
        store.put("k", VERDICT_KIND, {"passed": True})
        monkeypatch.setenv(faults.FAULT_ENV, "store-io")
        assert store.get("k") is None  # fault -> miss, not an exception
        monkeypatch.delenv(faults.FAULT_ENV)
        # The failed operation marked the store broken for this process;
        # clear() resets it, after which the data written pre-fault is
        # gone but the store works again.
        store.clear()
        store.put("k2", VERDICT_KIND, {"passed": False})
        assert store.get("k2") == {"passed": False}

    def test_store_io_fault_never_crashes_a_check(self, cache_dir, monkeypatch):
        from repro.core import faults

        monkeypatch.setenv(faults.FAULT_ENV, "store-io")
        session, result = _check("msn", "T0", "sc", store=True)
        assert result.passed is True
        assert result.stats.store_hit is False


class TestDegradedNeverStored:
    def test_timeout_verdict_is_not_cached(self, cache_dir):
        """A TIMEOUT is a property of one run's budget, not of the cell:
        it must never be served from the store as if it were an answer."""
        session, result = _check("msn", "T0", "sc", store=True, timeout=1e-9)
        assert result.degraded == "TIMEOUT"
        store = VerdictStore()
        assert store.stats()["cells"] == 0
        # A fresh, unbudgeted check runs for real and passes.
        session, result = _check("msn", "T0", "sc", store=True)
        assert result.passed is True
        assert not result.degraded


class TestCacheCli:
    def test_cache_stats_and_clear(self, cache_dir, capsys):
        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "store not created yet" in out

        assert main([
            "check", "--impl", "msn", "--test", "T0",
            "--model", "sc", "--store",
        ]) == 0
        capsys.readouterr()

        assert main(["cache"]) == 0
        out = capsys.readouterr().out
        assert "cells:  2" in out
        assert "verdict: 1" in out and "spec: 1" in out

        assert main(["cache", "--clear"]) == 0
        out = capsys.readouterr().out
        assert "removed 2 cell(s)" in out
        assert main(["cache"]) == 0
        assert "store not created yet" in capsys.readouterr().out

    def test_exported_store_variable_is_ignored(self, cache_dir, monkeypatch):
        """``--store`` is the store's one switch: an exported
        CHECKFENCE_STORE turns nothing on."""
        monkeypatch.setenv("CHECKFENCE_STORE", "1")
        assert main([
            "check", "--impl", "msn", "--test", "T0", "--model", "sc",
        ]) == 0
        assert not (cache_dir / "store.sqlite").exists()


class TestProfileOutput:
    def test_profile_line_on_stderr(self, cache_dir, monkeypatch, capsys):
        monkeypatch.setenv("CHECKFENCE_PROFILE", "1")
        _check("msn", "T0", "sc", store=True)
        err = capsys.readouterr().err
        assert "[profile] msn/T0@sc" in err
        assert "skeleton" in err
        assert re.search(r" solve=\d+\.\d{3}s total=\d+\.\d{3}s$", err,
                         re.MULTILINE)
        assert "simplify=" not in err
        _check("msn", "T0", "sc", store=True)
        err = capsys.readouterr().err
        assert "store-hit" in err

    def test_profile_off_by_default(self, cache_dir, monkeypatch, capsys):
        monkeypatch.delenv("CHECKFENCE_PROFILE", raising=False)
        _check("msn", "T0", "sc")
        assert "[profile]" not in capsys.readouterr().err
