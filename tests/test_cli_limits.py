"""CLI tests for resource budgets, degraded exit codes, and resuming a
campaign through --store."""

import json

import pytest

from repro.cli import main
from repro.core import faults, limits


class TestCheckBudget:
    def test_timeout_flag_degrades_to_exit_3(self, capsys):
        code = main([
            "check", "--impl", "msn", "--test", "T0", "--model", "sc",
            "--timeout", "0.0000001",
        ])
        assert code == 3
        assert "[TIMEOUT]" in capsys.readouterr().out

    def test_memory_limit_flag_degrades_to_oom(self, capsys):
        if limits.current_rss_bytes() is None:
            pytest.skip("no RSS probe on this platform")
        code = main([
            "check", "--impl", "msn", "--test", "T0", "--model", "sc",
            "--memory-limit", "1",
        ])
        assert code == 3
        assert "[OOM]" in capsys.readouterr().out

    def test_exported_budget_variables_are_ignored(self, capsys, monkeypatch):
        """``--timeout`` and ``--memory-limit`` are the budgets' one source:
        exported CHECKFENCE_TIMEOUT / CHECKFENCE_MEMORY_LIMIT values set
        no budget."""
        monkeypatch.setenv("CHECKFENCE_TIMEOUT", "0.0000001")
        monkeypatch.setenv("CHECKFENCE_MEMORY_LIMIT", "1")
        code = main([
            "check", "--impl", "msn", "--test", "T0", "--model", "sc",
        ])
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out

    def test_generous_budget_still_passes(self, capsys):
        code = main([
            "check", "--impl", "msn", "--test", "T0", "--model", "sc",
            "--timeout", "3600",
        ])
        assert code == 0
        assert "[PASS]" in capsys.readouterr().out


class TestMatrixDegradedExit:
    def test_timeout_flag_degrades_every_cell_to_exit_3(self, capsys):
        """A matrix whose every cell runs out of budget is degraded, not a
        FAIL, even where the check would fail: the rows say TIMEOUT and
        the exit code is 3, as for check."""
        code = main([
            "matrix", "--impls", "msn-unfenced", "--tests", "T0",
            "--models", "sc,relaxed", "--timeout", "0.0000001", "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 3
        rows = [line.split()[2:4] for line in out.splitlines()
                if line.startswith("msn-unfenced ")]
        assert rows == [["sc", "TIMEOUT"], ["relaxed", "TIMEOUT"]]
        assert "FAIL" not in out

    def test_timed_out_cell_exits_3_not_1(self, capsys, monkeypatch):
        """Exit 3 (budget ran out) must be distinguishable from exit 1
        (a bug was found): passing cells plus one TIMEOUT is 3."""
        monkeypatch.setenv(
            faults.FAULT_ENV, "cell-timeout:litmus/store-buffering@sc"
        )
        code = main([
            "matrix", "--litmus", "--models", "sc", "--quiet",
            "--json", "-",
        ])
        captured = capsys.readouterr()
        assert code == 3
        payload = json.loads(captured.out)
        verdicts = {
            cell["test"]: cell["verdict"] for cell in payload["cells"]
        }
        assert verdicts["store-buffering"] == "TIMEOUT"
        assert "TIMEOUT in litmus/store-buffering@sc" in captured.err

    def test_real_failure_still_exits_1(self, capsys, monkeypatch):
        """A FAIL alongside a TIMEOUT keeps the bug-found exit code."""
        monkeypatch.setenv(faults.FAULT_ENV, "cell-timeout:msn/T0@sc")
        code = main([
            "matrix", "--impls", "msn,msn-unfenced", "--tests", "T0",
            "--models", "sc,relaxed", "--quiet",
        ])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """Point the persistent store at a throwaway directory."""
    monkeypatch.setenv("CHECKFENCE_CACHE_DIR", str(tmp_path / "store"))


class TestMatrixStoreCli:
    def test_journal_flags_are_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", "--litmus", "--models", "sc", "--resume"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_store_rerun_roundtrip(self, cache_dir, capsys):
        args = ["matrix", "--litmus", "--models", "sc", "--quiet", "--store"]
        assert main(args) == 0
        assert "store hits" not in capsys.readouterr().out
        assert main(args) == 0
        assert "6 store hits" in capsys.readouterr().out

    def test_other_cell_set_misses_the_store(self, cache_dir, capsys):
        assert main([
            "matrix", "--litmus", "--models", "sc", "--quiet", "--store",
        ]) == 0
        capsys.readouterr()
        assert main([
            "matrix", "--litmus", "--models", "tso", "--quiet", "--store",
        ]) == 0
        assert "store hits" not in capsys.readouterr().out


class TestFuzzStoreCli:
    def test_journal_flags_are_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fuzz", "--budget", "1", "--resume"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_fuzz_store_rerun_roundtrip(self, cache_dir, capsys):
        """The corpus is deterministic from the seed, so a rerun sees the
        identical cells and the store serves every one."""
        args = [
            "fuzz", "--budget", "2", "--seed", "11", "--models", "sc",
            "--jobs", "1", "--quiet", "--store",
        ]
        assert main(args) == 0
        assert "store hits" not in capsys.readouterr().out
        assert main(args) == 0
        assert "2 store hits" in capsys.readouterr().out
