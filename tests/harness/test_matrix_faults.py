"""Fault-tolerance tests for the matrix orchestrator.

These exercise the CHECKFENCE_FAULT injection framework end-to-end:
crashed workers whose shards are retried (and must be verdict-identical
to a clean run), hung workers reaped by the watchdog, per-cell deadline
expiry surfacing as TIMEOUT, and the journal/--resume path.

The suite runs on small litmus matrices to stay fast; timing-dependent
assertions are kept generous because CI may be a single loaded core.
"""

import json
import multiprocessing

import pytest

from repro.core import faults, limits
from repro.harness.matrix import (
    JournalError,
    WORKER_TIMEOUT_ENV,
    litmus_cells,
    run_matrix,
)

FAULT_ENV = faults.FAULT_ENV


def _verdicts(matrix):
    return [(r.cell.key, r.verdict) for r in matrix.results]


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


class TestJournalResume:
    def test_journal_records_every_cell(self, tmp_path):
        cells = litmus_cells(["sc"])
        journal = tmp_path / "run.jsonl"
        matrix = run_matrix(cells, jobs=1, journal=str(journal))
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["journal"] == 1
        assert header["cells"] == len(cells)
        entries = [json.loads(line) for line in lines[1:]]
        assert {e["key"] for e in entries} == {c.key for c in cells}
        assert matrix.ok

    def test_resume_skips_finished_cells_verdict_identically(self, tmp_path):
        cells = litmus_cells(["sc", "tso"])
        journal = tmp_path / "run.jsonl"
        clean = run_matrix(cells, jobs=1, journal=str(journal))
        # Simulate a run that died partway: keep the header and the first
        # three completed cells, drop the rest.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:4]) + "\n")
        resumed = run_matrix(
            cells, jobs=1, journal=str(journal), resume=True
        )
        assert _verdicts(resumed) == _verdicts(clean)
        assert len(resumed.resumed) == 3
        fresh = [r for r in resumed.results if not r.stats.get("resumed")]
        assert len(fresh) == len(cells) - 3
        assert "resumed from journal" in resumed.summary()
        # The journal is now complete again: a second resume re-runs
        # nothing.
        rerun = run_matrix(cells, jobs=1, journal=str(journal), resume=True)
        assert len(rerun.resumed) == len(cells)
        assert _verdicts(rerun) == _verdicts(clean)

    def test_resume_works_in_parallel_mode(self, tmp_path):
        cells = litmus_cells(["sc", "relaxed"])
        journal = tmp_path / "run.jsonl"
        clean = run_matrix(cells, jobs=1, journal=str(journal))
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:3]) + "\n")
        resumed = run_matrix(
            cells, jobs=2, journal=str(journal), resume=True
        )
        assert _verdicts(resumed) == _verdicts(clean)
        assert len(resumed.resumed) == 2

    def test_interrupted_run_resumes_to_clean_verdicts(
        self, tmp_path, monkeypatch
    ):
        """The acceptance path: a run dies mid-matrix (injected Ctrl-C),
        the journal holds the finished prefix, and --resume completes the
        rest with verdicts identical to an uninterrupted run."""
        cells = litmus_cells(["sc", "tso"])
        clean = run_matrix(cells, jobs=1)
        journal = tmp_path / "run.jsonl"
        monkeypatch.setenv(FAULT_ENV, f"interrupt:{cells[4].key}")
        with pytest.raises(KeyboardInterrupt):
            run_matrix(cells, jobs=1, journal=str(journal))
        monkeypatch.delenv(FAULT_ENV)
        resumed = run_matrix(
            cells, jobs=1, journal=str(journal), resume=True
        )
        assert _verdicts(resumed) == _verdicts(clean)
        assert resumed.resumed  # at least the pre-interrupt cells restored
        assert len(resumed.resumed) < len(cells)

    def test_degraded_verdicts_are_never_treated_as_finished(
        self, tmp_path, monkeypatch
    ):
        """A TIMEOUT in the journal must be re-run on resume (budgets are
        per-run, the next run may have a better one); same for CRASHED."""
        cells = litmus_cells(["sc"])
        victim = cells[2]
        journal = tmp_path / "run.jsonl"
        monkeypatch.setenv(FAULT_ENV, f"cell-timeout:{victim.key}")
        first = run_matrix(cells, jobs=1, journal=str(journal))
        assert first.degraded
        monkeypatch.delenv(FAULT_ENV)
        resumed = run_matrix(
            cells, jobs=1, journal=str(journal), resume=True
        )
        by_key = {r.cell.key: r for r in resumed.results}
        assert by_key[victim.key].verdict not in limits.DEGRADED_VERDICTS
        assert not by_key[victim.key].stats.get("resumed")
        assert len(resumed.resumed) == len(cells) - 1

    def test_journal_for_different_cell_set_is_rejected(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        run_matrix(litmus_cells(["sc"]), jobs=1, journal=str(journal))
        with pytest.raises(JournalError, match="different cell set"):
            run_matrix(
                litmus_cells(["tso"]), jobs=1, journal=str(journal),
                resume=True,
            )

    def test_garbage_journal_is_rejected(self, tmp_path):
        journal = tmp_path / "run.jsonl"
        journal.write_text("this is not json\n")
        with pytest.raises(JournalError, match="unparseable header"):
            run_matrix(
                litmus_cells(["sc"]), jobs=1, journal=str(journal),
                resume=True,
            )

    def test_torn_tail_line_is_tolerated(self, tmp_path):
        cells = litmus_cells(["sc"])
        journal = tmp_path / "run.jsonl"
        clean = run_matrix(cells, jobs=1, journal=str(journal))
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"position": 0, "key": "trunc')  # writer died here
        resumed = run_matrix(
            cells, jobs=1, journal=str(journal), resume=True
        )
        assert _verdicts(resumed) == _verdicts(clean)

    def test_without_resume_existing_journal_is_overwritten(self, tmp_path):
        cells = litmus_cells(["sc"])
        journal = tmp_path / "run.jsonl"
        run_matrix(cells, jobs=1, journal=str(journal))
        first_size = journal.stat().st_size
        run_matrix(cells, jobs=1, journal=str(journal))
        # Rewritten from scratch, not appended.
        assert journal.stat().st_size == pytest.approx(first_size, rel=0.2)
        lines = journal.read_text().splitlines()
        assert json.loads(lines[0])["journal"] == 1
        assert len(lines) == 1 + len(cells)


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
