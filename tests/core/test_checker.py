"""Tests for the check of Fig. 1 (``CheckSession.check``),
counterexamples, and the baselines."""

from dataclasses import fields

import pytest

from repro.core import (
    CheckOptions,
    CheckSession,
    refine_loop_bounds,
    run_commit_point_check,
)
from repro.core.results import CheckStatistics
from repro.datatypes import get_implementation
from repro.encoding import compile_test
from repro.encoding.formula import EncodingStatistics
from repro.harness.catalog import get_test
from repro.memorymodel import RELAXED, SEQUENTIAL_CONSISTENCY, get_model
from repro.sat.solver import SolverStats


def check(implementation, test, model, options=None):
    """One check in a fresh session."""
    return CheckSession(implementation, options).check(test, model)


class TestCheckerOnNonblockingQueue:
    def test_fenced_queue_passes_relaxed(self):
        result = check(get_implementation("msn"), get_test("queue", "T0"), "relaxed")
        assert result.passed
        assert result.counterexample is None
        assert result.stats.observation_set_size == 4

    def test_unfenced_queue_fails_relaxed_with_trace(self):
        result = check(
            get_implementation("msn-unfenced"), get_test("queue", "T0"), "relaxed"
        )
        assert result.failed
        trace = result.counterexample
        assert trace is not None
        assert trace.kind == "observation"
        assert trace.memory_model == "relaxed"
        assert trace.steps, "trace should list the executed accesses"
        text = trace.format()
        assert "observation" in text
        assert "memory order" in text

    def test_unfenced_queue_passes_sequential_consistency(self):
        result = check(
            get_implementation("msn-unfenced"), get_test("queue", "T0"), "sc"
        )
        assert result.passed

    def test_two_lock_queue(self):
        assert check(get_implementation("ms2"), get_test("queue", "T0"), "relaxed").passed
        assert check(
            get_implementation("ms2-unfenced"), get_test("queue", "T0"), "sc"
        ).passed
        assert check(
            get_implementation("ms2-unfenced"), get_test("queue", "T0"), "relaxed"
        ).failed

    def test_statistics_populated(self):
        result = check(get_implementation("msn"), get_test("queue", "T0"), "relaxed")
        stats = result.stats
        assert stats.loads > 0 and stats.stores > 0
        assert stats.cnf_clauses > 1000
        assert stats.cnf_variables > 100
        assert stats.total_seconds > 0
        assert stats.encode_seconds > 0
        assert "PASS" in result.summary()

    def test_specification_cached_across_models(self):
        session = CheckSession(get_implementation("msn"))
        test = get_test("queue", "T0")
        first = session.check(test, "sc")
        second = session.check(test, "relaxed")
        assert first.specification is second.specification


class TestCheckerOptions:
    def test_sat_specification_method(self):
        options = CheckOptions(specification_method="sat")
        result = check(
            get_implementation("msn"), get_test("queue", "T0"), "relaxed", options
        )
        assert result.passed
        assert result.specification.method == "sat"

    def test_range_analysis_off_still_correct(self):
        options = CheckOptions(use_range_analysis=False)
        result = check(
            get_implementation("msn"), get_test("queue", "T0"), "relaxed", options
        )
        assert result.passed

    def test_range_analysis_reduces_formula_size(self):
        with_ranges = check(
            get_implementation("msn"), get_test("queue", "T0"), "relaxed"
        )
        without_ranges = check(
            get_implementation("msn"), get_test("queue", "T0"), "relaxed",
            CheckOptions(use_range_analysis=False),
        )
        assert with_ranges.stats.cnf_clauses < without_ranges.stats.cnf_clauses


class TestOptionValidation:
    """``CheckOptions`` rejects what the CLI rejects.  Each case below
    would run a wrong check: on msn-unfenced/T0 under relaxed (a FAIL
    over 26 accesses at the defaults) the bounds cut the loops, so the
    check PASSes over 9 accesses (79 with lazy refinement), the budgets
    end the check at once as TIMEOUT or OOM, and a negative synthesis
    budget acts as 0."""

    #: msn-unfenced/T0's two loops at their default bound of 1.
    T0_LOOPS = ("t0$0$enqueue.2::B@1", "t1$0$dequeue.3::B@1")

    @pytest.mark.parametrize("field, values", [
        ("default_loop_bound", {"default_loop_bound": 0}),
        ("default_loop_bound", {"default_loop_bound": -1}),
        ("loop_bounds", {"loop_bounds": dict.fromkeys(T0_LOOPS, 0)}),
        ("default_loop_bound",
         {"default_loop_bound": 0, "lazy_loop_bounds": True}),
        ("timeout", {"timeout": -1}),
        ("timeout", {"timeout": float("nan")}),
        ("memory_limit_mb", {"memory_limit_mb": -5}),
        ("synthesis_budget", {"synthesis_budget": -5}),
        ("synthesis_budget", {"synthesis_budget": 2.5}),
        ("synthesis_budget", {"synthesis_budget": True}),
    ])
    def test_out_of_range_value_names_its_field(self, field, values):
        with pytest.raises(ValueError, match=field):
            CheckOptions(**values)


class TestLoopBounds:
    def test_refinement_converges_on_t0(self):
        implementation = get_implementation("msn")
        outcome = refine_loop_bounds(
            implementation, get_test("queue", "T0"), get_model("relaxed"),
            max_rounds=3,
        )
        assert outcome.refinement_rounds >= 1
        assert outcome.compiled is not None

    def test_lazy_bounds_option_runs(self):
        options = CheckOptions(lazy_loop_bounds=True)
        result = check(
            get_implementation("msn"), get_test("queue", "T0"), "relaxed", options
        )
        assert result.passed


class TestCommitPointBaseline:
    def test_agrees_on_passing_check(self):
        compiled = compile_test(get_implementation("msn"), get_test("queue", "T0"))
        outcome = run_commit_point_check(compiled, RELAXED)
        assert outcome.passed
        assert outcome.solver_calls >= 1
        assert len(outcome.validated_observations) >= 1

    def test_detects_failure_on_unfenced_queue(self):
        compiled = compile_test(
            get_implementation("msn-unfenced"), get_test("queue", "T0")
        )
        outcome = run_commit_point_check(compiled, RELAXED)
        assert not outcome.passed
        assert outcome.counterexample is not None

    def test_agrees_under_sequential_consistency(self):
        compiled = compile_test(
            get_implementation("msn-unfenced"), get_test("queue", "T0")
        )
        outcome = run_commit_point_check(compiled, SEQUENTIAL_CONSISTENCY)
        assert outcome.passed


class TestCheckStatistics:
    def test_encoding_counters_are_inherited_not_redeclared(self):
        assert issubclass(CheckStatistics, EncodingStatistics)
        own = set(CheckStatistics.__annotations__)
        assert not own & {f.name for f in fields(EncodingStatistics)}

    def test_every_solver_counter_has_a_flat_field(self):
        names = {f.name for f in fields(CheckStatistics)}
        for f in fields(SolverStats):
            assert f"solver_{f.name}" in names

    def test_merge_solver_round_trips_through_solver_dict(self):
        solver = SolverStats(*range(1, 11), preprocess_seconds=0.5)
        stats = CheckStatistics()
        stats.merge_solver(solver, "native")
        assert stats.solver_conflicts == solver.conflicts
        assert stats.solver_dict() == {
            "backend": "native", "counters_available": True,
            **solver.as_dict(),
        }

    def test_missing_counters_are_marked_unavailable(self):
        stats = CheckStatistics()
        stats.merge_solver(None, "ipasir(x)")
        assert not stats.solver_dict()["counters_available"]
