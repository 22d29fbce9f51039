"""Tests for the incremental :class:`repro.core.session.CheckSession`."""

import pytest

import repro.core.session as session_module
from repro.core.checker import CheckFence, CheckOptions
from repro.core.session import CheckSession
from repro.datatypes.registry import get_implementation
from repro.harness.catalog import get_test
from repro.harness.runner import model_sweep
from repro.sat.backend import InternalBackend
from repro.sat.simplify import SimplifyingBackend

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


class TestCrossModelReuse:
    def test_sweep_mines_spec_once_with_identical_verdicts(self, monkeypatch):
        """A sweep over (sc, tso, pso, relaxed) must mine the specification
        exactly once and compile the test exactly once, while producing
        verdicts identical to independent CheckFence.check calls."""
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
        swept = session.sweep(test, _MODELS)

        assert len(mine_calls) == 1
        assert session.cache_stats["mine"] == 1
        assert session.cache_stats["mine_hits"] == len(_MODELS) - 1
        assert session.cache_stats["compile"] == 1
        assert session.cache_stats["compile_hits"] >= len(_MODELS) - 1

        independent = [
            CheckFence(get_implementation("msn")).check(test, model)
            for model in _MODELS
        ]
        for swept_result, independent_result in zip(swept, independent):
            assert _result_fingerprint(swept_result) == _result_fingerprint(
                independent_result
            )

    def test_sweep_detects_bug_same_as_independent_checks(self):
        """Reuse must not mask failures: the unfenced queue still fails on
        relaxed and passes on sc within one session."""
        implementation = get_implementation("msn-unfenced")
        results = CheckSession(implementation).sweep(
            get_test("queue", "T0"), ["sc", "relaxed"]
        )
        by_model = {r.memory_model: r for r in results}
        assert by_model["sc"].passed
        assert not by_model["relaxed"].passed
        assert by_model["relaxed"].counterexample is not None

    def test_repeated_check_same_pair_is_stable(self):
        """Re-checking the same (test, model) pair in one session returns
        the same verdict (the inclusion-contaminated encoding is evicted,
        not reused for the next assertion query)."""
        session = CheckSession(get_implementation("msn"))
        test = get_test("queue", "T0")
        first = session.check(test, "relaxed")
        second = session.check(test, "relaxed")
        assert _result_fingerprint(first) == _result_fingerprint(second)

    def test_backend_name_recorded(self):
        session = CheckSession(
            get_implementation("msn"),
            CheckOptions(solver_backend="internal"),
        )
        result = session.check(get_test("queue", "T0"), "sc")
        assert result.stats.solver_backend == "internal"
        assert result.stats.solver_decisions > 0


class TestRunnerSweep:
    def test_model_sweep_matches_per_model_checks(self):
        results = model_sweep("ms2", "T0", _MODELS)
        assert [r.memory_model for r in results] == _MODELS
        assert all(r.passed for r in results)
        # One specification object shared across all results.
        specs = {id(r.specification) for r in results}
        assert len(specs) == 1


class TestCheckFenceFacade:
    def test_checkfence_exposes_session(self):
        checker = CheckFence(get_implementation("msn"))
        assert isinstance(checker.session, CheckSession)
        assert checker.implementation.name == "msn"
        assert checker.program is checker.session.program

    def test_ipasir_fallback_backend_matches_internal(self, monkeypatch):
        """The ``ipasir`` spec (internal fallback when no library is found)
        must produce the same verdict as InternalBackend."""
        monkeypatch.setattr(
            "repro.sat.ipasir.find_ipasir_library", lambda: None
        )
        test = get_test("queue", "T0")
        internal = CheckFence(
            get_implementation("msn"), CheckOptions(solver_backend="internal")
        ).check(test, "relaxed")
        ipasir = CheckFence(
            get_implementation("msn"), CheckOptions(solver_backend="ipasir")
        ).check(test, "relaxed")
        assert ipasir.stats.solver_backend.endswith("ipasir(fallback:internal)")
        assert internal.passed == ipasir.passed
        assert (
            sorted(internal.specification.observations)
            == sorted(ipasir.specification.observations)
        )


class TestSimplifyKnob:
    def test_session_resolves_the_knob_into_its_backend_stack(
        self, monkeypatch
    ):
        monkeypatch.delenv("CHECKFENCE_SIMPLIFY", raising=False)
        monkeypatch.delenv("CHECKFENCE_STORE", raising=False)
        implementation = get_implementation("msn")
        on_session = CheckSession(
            implementation, CheckOptions(solver_backend="internal")
        )
        off_session = CheckSession(
            implementation,
            CheckOptions(solver_backend="internal", simplify=False),
        )
        assert on_session.simplify is True
        assert off_session.simplify is False
        assert isinstance(on_session.backend_factory(), SimplifyingBackend)
        assert isinstance(off_session.backend_factory(), InternalBackend)
        # perfbench/run.py prints these after it has measured; a missing
        # attribute would crash the benchmark.
        assert on_session.store is None
        assert (on_session.dense_order, on_session.share_encode) == (False, True)

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "0")
        session = CheckSession(get_implementation("msn"), CheckOptions())
        assert session.simplify is False

    def test_check_verdict_independent_of_the_knob(self, monkeypatch):
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY_MIN_CLAUSES", "0")
        session = CheckSession(
            get_implementation("msn"),
            CheckOptions(solver_backend="internal", simplify=True),
        )
        result = session.check(get_test("queue", "T0"), "sc")
        assert result.stats.solver_backend == "simplify+internal"
        off = CheckSession(
            get_implementation("msn"),
            CheckOptions(solver_backend="internal", simplify=False),
        ).check(get_test("queue", "T0"), "sc")
        assert off.stats.solver_backend == "internal"
        assert off.passed == result.passed
