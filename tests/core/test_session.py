"""Tests for the incremental :class:`repro.core.session.CheckSession`."""

import gc
import weakref

import pytest

import repro.core.session as session_module
from repro.core import limits
from repro.core.checker import CheckOptions
from repro.core.session import CheckSession
from repro.datatypes.registry import get_implementation
from repro.harness.catalog import get_test
from repro.sat import native

_MODELS = ["sc", "tso", "pso", "relaxed"]


def _result_fingerprint(result):
    return (
        result.passed,
        result.memory_model,
        sorted(result.specification.observations),
        result.stats.observation_set_size,
        result.loop_bounds,
        result.notes,
    )


class TestLifetime:
    @pytest.mark.parametrize("implementation", ["msn", "msn-unfenced"])
    def test_dropped_session_frees_its_compiled_test(self, implementation):
        """No reference cycle holds a compiled test (and the skeleton CNF
        memoized on it): dropping the session and the result frees it
        with the garbage collector off.  The unfenced queue FAILs, so the
        counterexample decoding runs too."""
        gc.disable()
        try:
            session = CheckSession(get_implementation(implementation))
            test = get_test("queue", "T0")
            result = session.check(test, "relaxed")
            assert result.passed == (implementation == "msn")
            compiled = weakref.ref(session.compile(test, "relaxed"))
            del session, result
            assert compiled() is None
        finally:
            gc.enable()


class TestCrossModelReuse:
    def test_sweep_mines_spec_once_with_identical_verdicts(self, monkeypatch):
        """Checking one test under (sc, tso, pso, relaxed) in one session
        must mine the specification exactly once and compile the test
        exactly once, while producing verdicts identical to checks in
        fresh sessions."""
        implementation = get_implementation("msn")
        test = get_test("queue", "T0")

        mine_calls = []
        real_mine = session_module.mine_specification

        def counting_mine(compiled, method, **kwargs):
            mine_calls.append(compiled.test.name)
            return real_mine(compiled, method, **kwargs)

        monkeypatch.setattr(
            session_module, "mine_specification", counting_mine
        )

        session = CheckSession(implementation)
        swept = [session.check(test, model) for model in _MODELS]

        assert len(mine_calls) == 1
        assert session.cache_stats["mine"] == 1
        assert session.cache_stats["mine_hits"] == len(_MODELS) - 1
        assert session.cache_stats["compile"] == 1
        assert session.cache_stats["compile_hits"] >= len(_MODELS) - 1

        independent = [
            CheckSession(get_implementation("msn")).check(test, model)
            for model in _MODELS
        ]
        for swept_result, independent_result in zip(swept, independent):
            assert _result_fingerprint(swept_result) == _result_fingerprint(
                independent_result
            )

    def test_phase_times_fit_inside_each_rows_total(self):
        """Every row's phase times describe its own check: a row served by
        the session's specification cache reports the lookup, never the
        original mining again."""
        session = CheckSession(
            get_implementation("msn"), CheckOptions(specification_method="sat")
        )
        test = get_test("queue", "T0")
        rows = [session.check(test, model) for model in ["sc", "tso", "relaxed"]]
        assert session.cache_stats["mine_hits"] == 2
        for result in rows:
            stats = result.stats
            phases = (
                stats.compile_seconds + stats.mining_seconds
                + stats.encode_seconds + stats.solve_seconds
            )
            assert phases <= stats.total_seconds, stats.memory_model

    def test_sweep_detects_bug_same_as_independent_checks(self):
        """Reuse must not mask failures: the unfenced queue still fails on
        relaxed and passes on sc within one session."""
        session = CheckSession(get_implementation("msn-unfenced"))
        test = get_test("queue", "T0")
        results = [session.check(test, model) for model in ["sc", "relaxed"]]
        by_model = {r.memory_model: r for r in results}
        assert by_model["sc"].passed
        assert not by_model["relaxed"].passed
        assert by_model["relaxed"].counterexample is not None

    def test_repeated_check_same_pair_is_stable(self):
        """Re-checking the same (test, model) pair in one session returns
        the same verdict (each check encodes its own formula, so the
        inclusion query's blocking clauses never reach the next one)."""
        session = CheckSession(get_implementation("msn"))
        test = get_test("queue", "T0")
        first = session.check(test, "relaxed")
        second = session.check(test, "relaxed")
        assert _result_fingerprint(first) == _result_fingerprint(second)

    def test_backend_name_recorded(self):
        session = CheckSession(
            get_implementation("msn"),
            CheckOptions(solver_backend="auto"),
        )
        result = session.check(get_test("queue", "T0"), "sc")
        assert result.stats.solver_backend == "native"
        assert result.stats.solver_decisions > 0


class TestSessionSurface:
    def test_session_exposes_implementation_and_program(self):
        session = CheckSession(get_implementation("msn"))
        assert session.implementation.name == "msn"
        assert isinstance(session.options, CheckOptions)
        assert session.program.procedures

    def test_ipasir_backend_matches_native(self, native_solver):
        """The ``ipasir:<path>`` spec (here over the native kernel's own
        IPASIR exports) must produce the same verdict and specification
        as the native kernel bound directly."""
        test = get_test("queue", "T0")
        direct = CheckSession(
            get_implementation("msn"), CheckOptions(solver_backend="auto")
        ).check(test, "relaxed")
        ipasir = CheckSession(
            get_implementation("msn"),
            CheckOptions(solver_backend=f"ipasir:{native.library_path()}"),
        ).check(test, "relaxed")
        assert ipasir.stats.solver_backend.endswith("ipasir(repro-cdcl)")
        assert direct.stats.solver_backend == "native"
        assert direct.passed == ipasir.passed
        assert (
            sorted(direct.specification.observations)
            == sorted(ipasir.specification.observations)
        )


class TestSolverStack:
    def test_the_constants_perfbench_prints(self):
        """``perfbench/run.py`` prints these after it has measured, so a
        missing attribute would crash the benchmark."""
        session = CheckSession(get_implementation("msn"))
        assert session.store is None
        assert (
            session.dense_order, session.share_encode, session.simplify
        ) == (False, True, False)

    @pytest.mark.parametrize("implementation,category,test", [
        ("snark", "deque", "Dq"),
        ("msn-unfenced", "queue", "Tpc4"),
    ])
    @pytest.mark.parametrize("lane", ["native", "ipasir"])
    def test_a_search_a_budget_stopped_is_no_verdict(
        self, poll_only_memory_spike, lane, implementation, category, test
    ):
        """Both cells FAIL under relaxed.  Memory over the cap at the
        kernel's first poll stops the inclusion query's search; the check
        is OOM even though the reading is under the cap again when the
        solve returns, never a PASS read off the unfinished search.  The
        kernel runs bound directly or loaded as an IPASIR library."""
        spec = "auto"
        if lane == "ipasir":
            spec = f"ipasir:{native.library_path()}"
        session = CheckSession(
            get_implementation(implementation),
            CheckOptions(solver_backend=spec),
        )
        with limits.deadline_scope(poll_only_memory_spike):
            result = session.check(get_test(category, test), "relaxed")
        assert poll_only_memory_spike.spiked
        assert result.degraded == limits.OOM, result.notes
        assert not result.passed
