"""Tests for the command line interface."""

import pytest

from repro.cli import main


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

    def test_spec(self, capsys):
        assert main(["spec", "--impl", "msn", "--test", "T0"]) == 0
        out = capsys.readouterr().out
        assert "4 observations" in out

    def test_litmus(self, capsys):
        assert main(["litmus", "--model", "sc"]) == 0
        out = capsys.readouterr().out
        assert "store-buffering" in out
        assert "forbidden" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_sweep(self, capsys):
        code = main([
            "sweep", "--impl", "msn", "--test", "T0",
            "--models", "sc,relaxed",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "compiled 1x" in out and "spec mined 1x" in out
        assert "sc" in out and "relaxed" in out

    def test_sweep_fail_returns_nonzero(self, capsys):
        code = main([
            "sweep", "--impl", "msn-unfenced", "--test", "T0",
            "--models", "sc,relaxed",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_check_with_solver_flag(self, capsys):
        code = main([
            "check", "--impl", "msn", "--test", "T0",
            "--model", "sc", "--solver", "internal",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "solver: internal" in out


class TestSolverSpecValidation:
    """A bad solver spec, from ``--solver`` or ``CHECKFENCE_SOLVER``, is a
    usage error in every command: one stderr line naming the valid specs
    and exit 2, before any work."""

    ARGV = {
        "check": ["check", "--impl", "msn", "--test", "T0"],
        "matrix": ["matrix", "--impls", "msn", "--tests", "T0",
                   "--models", "sc", "--quiet"],
        "fuzz": ["fuzz", "--budget", "2", "--models", "sc", "--quiet"],
    }

    @pytest.mark.parametrize("spec", ["zchaff", "ipasir"])
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
        assert "auto, internal, or ipasir:<path" in lines[0]


class TestUnknownNames:
    """An unknown implementation, test or model name is a usage error in
    every command that takes one: one stderr line and exit 2 (not exit 1,
    which is FAIL), before any work."""

    @pytest.mark.parametrize("argv, name", [
        (["check", "--impl", "nosuch", "--test", "T0"], "nosuch"),
        (["check", "--impl", "msn", "--test", "T99"], "T99"),
        (["check", "--impl", "msn", "--test", "T0", "--model", "weird"],
         "weird"),
        (["sweep", "--impl", "msn", "--test", "T0", "--models", "sc,weird"],
         "weird"),
        (["spec", "--impl", "msn", "--test", "T99"], "T99"),
        (["litmus", "--model", "weird"], "weird"),
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
        ("CHECKFENCE_JOBS", ["litmus", "--model", "sc"]),
        ("CHECKFENCE_MATRIX_WORKER_TIMEOUT",
         ["matrix", "--litmus", "--models", "sc", "--jobs", "2", "--quiet"]),
        ("CHECKFENCE_TIMEOUT", ["check", "--impl", "msn", "--test", "T0"]),
        ("CHECKFENCE_MEMORY_LIMIT",
         ["check", "--impl", "msn", "--test", "T0"]),
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


class TestErrorCellExit:
    """A cell that errors (here: an injected solver exception) makes every
    cell-running command exit 1; exit 2 is reserved for usage errors."""

    @pytest.mark.parametrize("argv", [
        ["matrix", "--litmus", "--models", "sc", "--quiet"],
        ["litmus", "--model", "sc"],
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
        assert main(["fuzz", "--budget", "0", "--quiet"]) == 2

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
        ["litmus", "--model", "sc", "--store"],
    ], ids=["oracle-timeout", "litmus-store"])
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
        ["--solver", "internal"], ["--budget", "5"], ["--json", "-"],
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
            "--solver", "internal", "--budget", "30",
        ])
        assert code == 0
        assert "fence(s)" in capsys.readouterr().out
