"""Tests for the pluggable solver backend layer.

The differential suite checks :class:`InternalBackend` over both kernels
against brute-force truth-table enumeration on random small CNFs; the
spec tests pin how :func:`make_backend_factory` resolves a spec and
stacks the preprocessor and the fault proxy around the chosen backend.
"""

from __future__ import annotations

import ctypes.util
import itertools
import random

import pytest

from repro.core import faults
from repro.encoding import encode_test
from repro.litmus.catalog import available_litmus_tests, compiled_litmus
from repro.memorymodel.base import get_model
from repro.sat import CNF, ipasir, native
from repro.sat.backend import InternalBackend, make_backend_factory
from repro.sat.simplify import SimplifyingBackend


def brute_force_satisfiable(cnf: CNF) -> bool:
    variables = list(range(1, cnf.num_vars + 1))
    for bits in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause)
            for clause in cnf.clauses
        ):
            return True
    return not cnf.clauses


def _count_library_probes(monkeypatch) -> list[str]:
    """Record every ``find_library`` lookup (each misses) from an empty
    discovery memo with ``CHECKFENCE_IPASIR_LIB`` unset."""
    calls: list[str] = []

    def find_library(name):
        calls.append(name)
        return None

    monkeypatch.delenv(ipasir.IPASIR_LIB_ENV, raising=False)
    monkeypatch.setattr(ipasir, "_DISCOVERED", {})
    monkeypatch.setattr(ctypes.util, "find_library", find_library)
    return calls


def check_model(cnf: CNF, model: dict[int, bool]) -> bool:
    return all(
        any(model.get(abs(l), False) == (l > 0) for l in clause)
        for clause in cnf.clauses
    )


def random_cnfs(count: int, seed: int = 20070607):
    """Deterministic stream of small random CNFs."""
    rng = random.Random(seed)
    for _ in range(count):
        num_vars = rng.randint(1, 7)
        num_clauses = rng.randint(1, 20)
        cnf = CNF()
        cnf.new_vars(num_vars)
        for _ in range(num_clauses):
            size = rng.randint(1, 3)
            cnf.add_clause([
                rng.randint(1, num_vars) * rng.choice([1, -1])
                for _ in range(size)
            ])
        yield cnf


def run_differential(make_backend, count: int) -> None:
    for cnf in random_cnfs(count):
        expected = brute_force_satisfiable(cnf)
        backend = make_backend()
        backend.add_cnf(cnf)
        got = backend.solve()
        assert got == expected, f"{backend.name} disagrees on {cnf!r}"
        if got:
            assert check_model(cnf, backend.model()), (
                f"{backend.name} returned an invalid model for {cnf!r}"
            )


class TestInternalBackend:
    def test_differential_vs_brute_force(self):
        run_differential(InternalBackend, count=120)

    def test_native_differential_vs_brute_force(self, native_solver):
        run_differential(
            lambda: InternalBackend(native_solver(), "native"), count=120
        )

    @pytest.mark.parametrize("kernel", ["python", "native"])
    def test_add_cnf_from_an_offset(self, kernel, request):
        """``add_cnf(cnf, start)`` adds exactly clauses ``start`` onwards."""
        if kernel == "python":
            backend = InternalBackend()
        else:
            backend = InternalBackend(
                request.getfixturevalue("native_solver")(), "native"
            )
        cnf = CNF()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a])
        cnf.add_clause([-a, b])
        assert backend.add_cnf(cnf, 1) is True
        assert backend.solve([-a]) is True
        assert backend.values_of([a]) == {a: False}
        cnf.add_clause([-b])
        assert backend.add_cnf(cnf, 2) is True
        assert backend.solve([a]) is False
        assert backend.failed_assumptions() == [a]

    def test_assumptions_and_stats(self):
        cnf = CNF()
        a, b = cnf.new_vars(2)
        cnf.add_clause([-a, b])
        backend = InternalBackend()
        backend.add_cnf(cnf)
        assert backend.solve(assumptions=[a]) is True
        assert backend.model()[b] is True
        backend.add_clause([-b])
        assert backend.solve(assumptions=[a]) is False
        assert backend.solve() is True
        assert backend.stats().propagations >= 1
        assert backend.name == "internal"


class TestBackendSpecs:
    def test_internal_specs(self):
        for spec in ("auto", "internal", ""):
            backend = make_backend_factory(spec, simplify=False)()
            assert isinstance(backend, InternalBackend)

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("CHECKFENCE_SOLVER", "internal")
        backend = make_backend_factory(None, simplify=False)()
        assert isinstance(backend, InternalBackend)

    def test_unknown_spec_rejected(self):
        for spec in ("zchaff", "dimacs", "dimacs:kissat", "ipasir:", "native"):
            with pytest.raises(ValueError):
                make_backend_factory(spec)

    def test_ipasir_discovery_runs_once_per_factory(self, monkeypatch):
        """``--solver ipasir`` used to probe the system (four
        ``find_library`` lookups, each shelling out when it misses) for
        every backend it built; a factory now resolves the library once."""
        calls = _count_library_probes(monkeypatch)
        factory = make_backend_factory("ipasir", simplify=False)
        backends = [factory() for _ in range(5)]
        assert {backend.name for backend in backends} == {
            "ipasir(fallback:internal)"
        }
        assert len(calls) == len(ipasir._KNOWN_LIBRARIES)

    def test_ipasir_discovery_runs_once_per_fuzz_run(self, monkeypatch):
        """Fuzz cells each build their own backend factory; the system is
        still probed only once per run, not once per cell."""
        from repro.core.checker import CheckOptions
        from repro.fuzz import run_fuzz

        calls = _count_library_probes(monkeypatch)
        result = run_fuzz(
            4, seed=1, models=("sc", "relaxed"), jobs=1,
            options=CheckOptions(solver_backend="ipasir"),
        )
        assert len(result.matrix.results) == 8
        assert len(calls) == len(ipasir._KNOWN_LIBRARIES)

    def test_ipasir_library_loads_once_per_path(self, native_solver):
        path = native.library_path()
        factory = make_backend_factory(f"ipasir:{path}")
        first, second = factory(), factory()
        assert first._library is second._library
        assert ipasir.load_ipasir_library(path) is first._library
        assert first.name == "ipasir(repro-cdcl)"


class TestBackendStack:
    """The factory owns the one remaining solver-stack decision."""

    def test_preprocessor_wraps_the_python_kernel_by_default(self, monkeypatch):
        monkeypatch.delenv("CHECKFENCE_SIMPLIFY", raising=False)
        factory = make_backend_factory("internal")
        backend = factory()
        assert factory.preprocess is True
        assert isinstance(backend, SimplifyingBackend)
        assert isinstance(backend.inner, InternalBackend)
        assert backend.name == "simplify+internal"
        assert factory.fallback_reason is None

    def test_native_kernel_runs_bare_by_default(
        self, native_solver, monkeypatch
    ):
        monkeypatch.delenv("CHECKFENCE_SIMPLIFY", raising=False)
        monkeypatch.delenv("CHECKFENCE_SOLVER", raising=False)
        factory = make_backend_factory()
        backend = factory()
        assert factory.preprocess is False
        assert isinstance(backend, InternalBackend)
        assert isinstance(backend.solver, native_solver)
        assert backend.name == "native"
        assert factory.fallback_reason is None
        # The preprocessor is still forced over the native kernel by the
        # environment or an explicit flag, and removed by "0".
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "1")
        assert make_backend_factory()().name == "simplify+native"
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "0")
        assert make_backend_factory(simplify=True)().name == "simplify+native"
        assert make_backend_factory()().name == "native"

    def test_simplify_flag_and_env(self, monkeypatch):
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "0")
        assert isinstance(make_backend_factory("internal")(), InternalBackend)
        assert isinstance(
            make_backend_factory("internal", simplify=True)(),
            SimplifyingBackend,
        )
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "1")
        assert isinstance(
            make_backend_factory("internal", simplify=False)(),
            InternalBackend,
        )

    def test_fault_proxy_sits_inside_the_preprocessor(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_ENV, "solver-raise:1000000")
        backend = make_backend_factory("internal", simplify=True)()
        assert isinstance(backend, SimplifyingBackend)
        assert isinstance(backend.inner, faults.FaultySolverProxy)
        bare = make_backend_factory("internal", simplify=False)()
        assert isinstance(bare, faults.FaultySolverProxy)

    def test_encoded_test_freezes_every_stack_before_its_clauses(self):
        """``EncodedTest`` hands its frozen set to whatever stack the
        factory built, bare backends included: once, before any clause."""
        events = []

        class RecordingBackend(InternalBackend):
            def freeze(self, variables):
                events.append(frozenset(variables))

            def add_cnf(self, cnf, start=0):
                events.append(("add_cnf", start))
                return super().add_cnf(cnf, start)

        litmus = available_litmus_tests()["store-buffering"]
        encoded = encode_test(
            compiled_litmus(litmus), get_model("sc"),
            backend_factory=RecordingBackend,
        )
        assert encoded.solve()
        frozen, *rest = events
        assert frozen and frozen <= encoded.frozen_variables()
        assert rest and all(event[0] == "add_cnf" for event in rest)
        # Each sync starts where the previous one stopped.
        assert rest[0] == ("add_cnf", 0)
