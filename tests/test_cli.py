"""Tests for the command line interface."""

import argparse
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "msn" in out and "lazylist" in out
        assert "relaxed" in out
        assert "T0" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Two-lock queue" in out and "snark" in out

    def test_check_pass(self, capsys):
        code = main(["check", "--impl", "msn", "--test", "T0", "--model", "relaxed"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_check_fail_returns_nonzero(self, capsys):
        code = main([
            "check", "--impl", "msn-unfenced", "--test", "T0", "--model", "relaxed",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "counterexample" in out
        # The smallest legal loop bound keeps the failure.
        assert main([
            "check", "--impl", "msn-unfenced", "--test", "T0",
            "--model", "relaxed", "--bound", "1",
        ]) == 1

    def test_spec(self, capsys):
        assert main(["spec", "--impl", "msn", "--test", "T0"]) == 0
        out = capsys.readouterr().out
        assert "4 observations" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_check_with_solver_flag(self, capsys):
        code = main([
            "check", "--impl", "msn", "--test", "T0",
            "--model", "sc", "--solver", "auto",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "solver: native" in out


class TestSolverSpecValidation:
    """A bad solver spec, from ``--solver`` or ``CHECKFENCE_SOLVER``, is a
    usage error in every command that takes ``--solver``: one stderr line
    naming the valid specs and exit 2, before any work."""

    #: One argument vector per command that takes ``--solver``.
    ARGV = {
        "check": ["check", "--impl", "msn", "--test", "T0"],
        "matrix": ["matrix", "--impls", "msn", "--tests", "T0",
                   "--models", "sc", "--quiet"],
        "fuzz": ["fuzz", "--budget", "2", "--models", "sc", "--quiet"],
        "oracle": ["oracle", "--litmus", "store-buffering", "--model", "sc"],
        "synthesize": ["synthesize", "--spec", "x=1 r0=y | y=1 r1=x",
                       "--model", "tso"],
    }

    @pytest.mark.parametrize("spec", ["zchaff", "ipasir", "internal"])
    @pytest.mark.parametrize("source", ["flag", "env"])
    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_bad_spec_is_a_usage_error(
        self, command, source, spec, capsys, monkeypatch
    ):
        argv = list(self.ARGV[command])
        if source == "flag":
            argv += ["--solver", spec]
        else:
            monkeypatch.setenv("CHECKFENCE_SOLVER", spec)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"{command}: ")
        assert repr(spec) in lines[0]
        assert "auto or ipasir:<path" in lines[0]

    def test_argv_covers_every_command_that_takes_solver(self):
        commands = next(
            action.choices for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        takes_solver = {
            name for name, parser in commands.items()
            if any("--solver" in action.option_strings
                   for action in parser._actions)
        }
        assert takes_solver == set(self.ARGV)


class TestNativeKernelRequired:
    """Every check needs the native library.  When it cannot be built,
    each command that takes ``--solver`` says why in one stderr line and
    exits 2, before any work; a command that checks nothing still runs."""

    ARGV = TestSolverSpecValidation.ARGV

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_failed_build_is_a_usage_error(
        self, command, broken_native_build, capsys
    ):
        assert main(self.ARGV[command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"{command}: native kernel unavailable: {broken_native_build}"
        ]

    @pytest.mark.parametrize("argv, shows", [
        (["list"], "Implementations"),
        (["table1"], "Two-lock queue"),
        (["cache"], "store not created yet"),
    ])
    def test_commands_that_check_nothing_still_run(
        self, argv, shows, broken_native_build, tmp_path, monkeypatch,
        capsys
    ):
        monkeypatch.setenv("CHECKFENCE_CACHE_DIR", str(tmp_path))
        assert main(argv) == 0
        assert shows in capsys.readouterr().out


class TestUnknownNames:
    """An unknown implementation, test or model name is a usage error in
    every command that takes one: one stderr line and exit 2 (not exit 1,
    which is FAIL), before any work."""

    @pytest.mark.parametrize("argv, name", [
        (["check", "--impl", "nosuch", "--test", "T0"], "nosuch"),
        (["check", "--impl", "msn", "--test", "T99"], "T99"),
        (["check", "--impl", "msn", "--test", "T0", "--model", "weird"],
         "weird"),
        (["spec", "--impl", "msn", "--test", "T99"], "T99"),
        (["matrix", "--litmus", "--models", "sc,weird", "--quiet"],
         "weird"),
        (["matrix", "--impls", "msn,nosuch", "--models", "sc", "--quiet"],
         "nosuch"),
        (["matrix", "--impls", "msn-nosuch", "--models", "sc", "--quiet"],
         "msn-nosuch"),
        (["matrix", "--impls", "msn", "--models", "sc,weird", "--quiet"],
         "weird"),
        (["oracle", "--litmus", "store-buffering", "--model", "weird"],
         "weird"),
        (["synthesize", "--impl", "nosuch", "--test", "T0"], "nosuch"),
        (["synthesize", "--spec", "x=1 r0=y | y=1 r1=x", "--models",
          "tso,weird"], "weird"),
        (["fuzz", "--budget", "1", "--models", "sc,weird", "--quiet"],
         "weird"),
    ])
    def test_unknown_name_is_a_usage_error(self, argv, name, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"{argv[0]}: unknown ")
        assert repr(name) in lines[0]

    def test_matrix_tests_stay_per_cell_errors(self, capsys):
        """``matrix --tests`` is not resolved up front: a test missing
        from an implementation's category is that cell's ERROR."""
        code = main([
            "matrix", "--impls", "msn", "--tests", "T99", "--models", "sc",
            "--quiet",
        ])
        assert code == 1
        assert "ERROR" in capsys.readouterr().out


class TestMalformedEnvironmentNumbers:
    """A ``CHECKFENCE_*`` variable that must hold a number but does not is
    a usage error: one stderr line naming the variable and exit 2, before
    any work — never a traceback, and never silently ignored."""

    @pytest.mark.parametrize("variable, argv", [
        ("CHECKFENCE_JOBS", ["matrix", "--litmus", "--models", "sc"]),
        ("CHECKFENCE_MATRIX_WORKER_TIMEOUT",
         ["matrix", "--litmus", "--models", "sc", "--jobs", "2", "--quiet"]),
    ])
    def test_malformed_number_is_a_usage_error(
        self, variable, argv, capsys, monkeypatch
    ):
        monkeypatch.setenv(variable, "abc")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"{argv[0]}: {variable} ")
        assert "'abc'" in lines[0]

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_worker_timeout_is_a_usage_error(
        self, value, capsys, monkeypatch
    ):
        """Not a way to switch the hung-worker watchdog off: that is
        leaving the variable unset."""
        monkeypatch.setenv("CHECKFENCE_MATRIX_WORKER_TIMEOUT", value)
        argv = ["matrix", "--litmus", "--models", "sc", "--jobs", "2",
                "--quiet"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "matrix: CHECKFENCE_MATRIX_WORKER_TIMEOUT must be a positive "
            f"finite number, got {value!r}"
        ]

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, value, capsys, monkeypatch):
        """Not clamped to one worker: a count below 1 is a mistake."""
        monkeypatch.setenv("CHECKFENCE_JOBS", value)
        assert main(["matrix", "--litmus", "--models", "sc"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"matrix: CHECKFENCE_JOBS must be an integer of at least 1, "
            f"got {value!r}"
        ]


class TestOutOfRangeFlags:
    """A budget flag that is not a positive finite number, or a loop
    bound or other count below 1, is a usage error (exit 2, before any
    work): a nonpositive budget would report TIMEOUT or OOM for a check
    that never ran, a bound of 0 cuts every loop and turns a FAIL into a
    PASS, and a smoke or campaign of 0 programs passes having checked
    nothing."""

    CHECK = ["check", "--impl", "msn-unfenced", "--test", "T0"]

    @pytest.mark.parametrize("argv", [
        CHECK + ["--timeout", "-1"],
        CHECK + ["--timeout", "0"],
        CHECK + ["--timeout", "nan"],
        CHECK + ["--timeout", "inf"],
        CHECK + ["--memory-limit", "-5"],
        CHECK + ["--memory-limit", "0"],
        CHECK + ["--bound", "0"],
        CHECK + ["--bound", "-1"],
        ["matrix", "--litmus", "--models", "sc", "--timeout", "-1"],
        ["fuzz", "--budget", "1", "--memory-limit", "nan"],
        ["matrix", "--litmus", "--models", "sc", "--jobs", "0"],
        ["matrix", "--litmus", "--models", "sc", "--jobs", "-2"],
        ["synthesize", "--fuzz-budget", "0"],
        ["synthesize", "--fuzz-budget", "-1"],
        ["fuzz", "--budget", "0"],
        ["fuzz", "--budget", "1", "--jobs", "0"],
        ["fuzz", "--budget", "1", "--max-threads", "0"],
        ["fuzz", "--budget", "1", "--max-ops", "0"],
        ["fuzz", "--budget", "1", "--addrs", "0"],
        ["synthesize", "--impl", "msn-unfenced", "--test", "T0",
         "--budget", "-1"],
        ["synthesize", "--impl", "msn-unfenced", "--test", "T0",
         "--budget", "2.5"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}={argv[-1]}")
    def test_out_of_range_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {argv[-2]}: must be" in captured.err

    def test_synthesis_budget_of_zero_stays_valid(self):
        """0 stops synthesis at the 1-minimal set; it is not out of
        range."""
        args = build_parser().parse_args([
            "synthesize", "--impl", "msn-unfenced", "--test", "T0",
            "--budget", "0",
        ])
        assert args.budget == 0


class TestClosedStdout:
    """A reader that goes away (``checkfence matrix ... | head -1``) is no
    verdict: the command exits 141, as a shell reports a SIGPIPE death,
    with no traceback, and never 1, the FAIL code."""

    @pytest.mark.parametrize("argv", [
        ["list"],
        ["check", "--impl", "msn", "--test", "T0", "--model", "relaxed"],
        ["matrix", "--impls", "msn", "--tests", "T0", "--models", "sc,tso"],
    ], ids=lambda argv: argv[0])
    def test_closed_stdout_exits_141(self, argv, src_on_subprocess_path):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert run.returncode == 141, run.stderr
        assert "Traceback" not in run.stderr
        assert "BrokenPipeError" not in run.stderr


class TestErrorCellExit:
    """A cell that errors (here: an injected solver exception) makes every
    cell-running command exit 1; exit 2 is reserved for usage errors."""

    @pytest.mark.parametrize("argv", [
        ["matrix", "--litmus", "--models", "sc", "--quiet"],
        ["fuzz", "--budget", "3", "--models", "sc", "--quiet"],
    ], ids=lambda argv: argv[0])
    def test_error_cell_exits_1(self, argv, capsys, monkeypatch):
        from repro.core import faults

        monkeypatch.setenv(faults.FAULT_ENV, "solver-raise:1")
        faults.reset_solver_counter()
        assert main(argv) == 1
        assert "error in " in capsys.readouterr().err


class TestOracleCommand:
    def test_litmus_agreement(self, capsys):
        code = main(["oracle", "--litmus", "store-buffering", "--model", "tso"])
        assert code == 0
        out = capsys.readouterr().out
        assert "agree on 4 outcomes" in out
        assert "[both]" in out

    def test_spec_agreement(self, capsys):
        code = main(["oracle", "--spec", "x=1 r0=y | y=1 r1=x",
                     "--model", "sc"])
        assert code == 0
        out = capsys.readouterr().out
        assert "agree on 3 outcomes" in out

    def test_requires_exactly_one_input(self, capsys):
        assert main(["oracle", "--model", "sc"]) == 2
        assert main([
            "oracle", "--litmus", "store-buffering", "--spec", "x=1",
        ]) == 2

    def test_unknown_litmus_name(self, capsys):
        assert main(["oracle", "--litmus", "nope"]) == 2
        assert "unknown litmus test" in capsys.readouterr().err

    def test_malformed_spec_is_a_clean_error(self, capsys):
        assert main(["oracle", "--spec", "garbage", "--model", "sc"]) == 2
        assert "cannot parse" in capsys.readouterr().err


class TestFuzzCommand:
    def test_small_campaign(self, capsys):
        code = main([
            "fuzz", "--budget", "5", "--seed", "11",
            "--models", "sc,relaxed", "--quiet",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "5 programs x 2 models = 10 cells" in out
        assert "0 divergences" in out

    def test_json_output(self, tmp_path, capsys):
        target = tmp_path / "fuzz.json"
        code = main([
            "fuzz", "--budget", "3", "--seed", "2", "--models", "sc",
            "--quiet", "--json", str(target),
        ])
        assert code == 0
        import json as json_module

        payload = json_module.loads(target.read_text())
        assert payload["ok"] is True
        assert payload["programs"] == 3
        assert payload["cells"] == 3
        assert payload["seed"] == 2
        assert payload["programs_per_second"] > 0

    def test_no_cells_is_an_error_not_a_vacuous_pass(self, capsys):
        assert main(["fuzz", "--models", ",", "--budget", "5",
                     "--quiet"]) == 2
        assert "no cells selected" in capsys.readouterr().err

    def test_json_stdout_is_pure(self, capsys):
        # `--json - | jq` must work: the human summary goes to stderr.
        code = main([
            "fuzz", "--budget", "2", "--seed", "3", "--models", "sc",
            "--quiet", "--json", "-",
        ])
        assert code == 0
        captured = capsys.readouterr()
        import json as json_module

        payload = json_module.loads(captured.out)
        assert payload["programs"] == 2
        assert "fuzz:" in captured.err

    def test_max_knobs_below_defaults_are_honored(self, capsys):
        code = main([
            "fuzz", "--budget", "4", "--seed", "6", "--models", "sc",
            "--max-threads", "1", "--max-ops", "2", "--quiet", "--json", "-",
        ])
        assert code == 0
        import json as json_module

        payload = json_module.loads(capsys.readouterr().out)
        from repro.fuzz import FuzzProgram

        for cell in payload["matrix"]["cells"]:
            program = FuzzProgram.parse(cell["test"])
            assert len(program.threads) == 1
            assert all(len(t) <= 2 for t in program.threads)

    def test_divergence_sets_exit_code(self, capsys, drop_same_address_axiom):
        code = main([
            "fuzz", "--budget", "25", "--seed", "1", "--jobs", "1",
            "--models", "relaxed", "--quiet",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out
        assert "replay: checkfence oracle" in out


class TestIgnoredFlagsAreRejected:
    """A flag a subcommand would silently ignore is a usage error: argparse
    rejects flags the subcommand does not carry (exit 2), and
    ``synthesize`` exits 2 when a flag does not apply to its mode."""

    SPEC = "x=1 r0=y | y=1 r1=x"

    @pytest.mark.parametrize("argv", [
        ["oracle", "--litmus", "store-buffering", "--model", "tso",
         "--timeout", "0.000001"],
        ["spec", "--impl", "msn", "--test", "T0", "--store"],
    ], ids=["oracle-timeout", "spec-store"])
    def test_argparse_rejects_flags_the_command_does_not_honor(
        self, argv, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_synthesize_spec_rejects_store_and_budget(self, capsys):
        code = main([
            "synthesize", "--spec", self.SPEC, "--model", "tso", "--store",
        ])
        assert code == 2
        assert "--store has no effect with --spec" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main([
                "synthesize", "--spec", self.SPEC, "--model", "tso",
                "--timeout", "0.000001",
            ])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [
        ["--impl", "msn-unfenced", "--test", "T0"],
        ["--spec", SPEC],
        ["--fuzz-budget", "1"],
    ], ids=["impl", "spec", "fuzz-budget"])
    @pytest.mark.parametrize("budget", [
        ["--timeout", "0.0000001"], ["--memory-limit", "1"],
    ], ids=["timeout", "memory-limit"])
    def test_synthesize_rejects_budget_flags_in_every_mode(
        self, mode, budget, capsys
    ):
        """No synthesis mode opens a deadline scope, so none takes the
        per-check budget flags."""
        with pytest.raises(SystemExit) as excinfo:
            main(["synthesize", "--model", "relaxed"] + mode + budget)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ["--solver", "auto"], ["--budget", "5"], ["--json", "-"],
    ], ids=["solver", "budget", "json"])
    def test_synthesize_fuzz_budget_rejects_ignored_flags(self, extra, capsys):
        code = main(["synthesize", "--fuzz-budget", "1"] + extra)
        assert code == 2
        assert "no effect with --fuzz-budget" in capsys.readouterr().err

    def test_synthesize_impl_rejects_seed(self, capsys):
        code = main([
            "synthesize", "--impl", "msn-unfenced", "--test", "T0",
            "--seed", "0",
        ])
        assert code == 2
        assert "--seed has no effect with --impl" in capsys.readouterr().err

    def test_synthesize_spec_honors_its_flags(self, capsys):
        code = main([
            "synthesize", "--spec", self.SPEC, "--model", "tso",
            "--solver", "auto", "--budget", "30",
        ])
        assert code == 0
        assert "fence(s)" in capsys.readouterr().out
