"""Tests for the incremental :class:`repro.core.session.CheckSession`."""

import pytest

import repro.core.session as session_module
from repro.core.checker import CheckFence, CheckOptions
from repro.core.session import CheckSession
from repro.datatypes.registry import get_implementation
from repro.harness.catalog import get_test
from repro.sat import native
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
            CheckOptions(solver_backend="internal"),
        )
        result = session.check(get_test("queue", "T0"), "sc")
        assert result.stats.solver_backend == "internal"
        assert result.stats.solver_decisions > 0


class TestCheckFenceFacade:
    def test_checkfence_exposes_session(self):
        checker = CheckFence(get_implementation("msn"))
        assert isinstance(checker.session, CheckSession)
        assert checker.implementation.name == "msn"
        assert checker.program is checker.session.program

    def test_ipasir_backend_matches_internal(self, native_solver):
        """The ``ipasir:<path>`` spec (here over the native kernel's own
        IPASIR exports) must produce the same verdict and specification
        as the pure-Python kernel."""
        test = get_test("queue", "T0")
        internal = CheckFence(
            get_implementation("msn"), CheckOptions(solver_backend="internal")
        ).check(test, "relaxed")
        ipasir = CheckFence(
            get_implementation("msn"),
            CheckOptions(solver_backend=f"ipasir:{native.library_path()}"),
        ).check(test, "relaxed")
        assert ipasir.stats.solver_backend.endswith("ipasir(repro-cdcl)")
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
        session = CheckSession(
            implementation, CheckOptions(solver_backend="internal")
        )
        assert session.simplify is True
        backend = session.backend_factory()
        assert isinstance(backend, SimplifyingBackend)
        assert isinstance(backend.inner, InternalBackend)
        assert backend.min_clauses > 0
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "1")
        forced = CheckSession(
            implementation, CheckOptions(solver_backend="internal")
        )
        assert forced.simplify is True
        assert forced.backend_factory().min_clauses == 0
        # perfbench/run.py prints these after it has measured; a missing
        # attribute would crash the benchmark.
        assert session.store is None
        assert (session.dense_order, session.share_encode) == (False, True)

    def test_env_fallback(self, monkeypatch):
        """``CHECKFENCE_SIMPLIFY=0`` reads as unset: the Python stack keeps
        its preprocessor at the measured threshold."""
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "0")
        session = CheckSession(
            get_implementation("msn"), CheckOptions(solver_backend="internal")
        )
        assert session.simplify is True
        assert session.backend_factory().min_clauses > 0

    def test_default_stack_over_the_native_kernel_has_no_preprocessor(
        self, native_solver, monkeypatch
    ):
        for name in ("CHECKFENCE_SIMPLIFY", "CHECKFENCE_SOLVER"):
            monkeypatch.delenv(name, raising=False)
        session = CheckSession(get_implementation("msn"), CheckOptions())
        assert session.simplify is False
        assert session.backend_factory().name == "native"
        result = session.check(get_test("queue", "T0"), "sc")
        assert result.passed and result.stats.solver_backend == "native"
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "1")
        forced = CheckSession(get_implementation("msn"), CheckOptions())
        assert forced.simplify is True
        assert forced.backend_factory().name == "simplify+native"

    def test_check_verdict_independent_of_the_knob(self, monkeypatch):
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "1")
        session = CheckSession(
            get_implementation("msn"), CheckOptions(solver_backend="internal")
        )
        result = session.check(get_test("queue", "T0"), "sc")
        assert result.stats.solver_backend == "simplify+internal"
        monkeypatch.delenv("CHECKFENCE_SIMPLIFY")
        # Below its threshold the default preprocessor bypasses itself and
        # reports the bare kernel.
        off = CheckSession(
            get_implementation("msn"), CheckOptions(solver_backend="internal")
        ).check(get_test("queue", "T0"), "sc")
        assert off.stats.solver_backend == "internal"
        assert off.passed == result.passed
