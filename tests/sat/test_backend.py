"""Tests for the pluggable solver backend layer.

The differential suite checks :class:`InternalBackend` (the native
kernel) against brute-force truth-table enumeration on random small CNFs;
the spec tests pin how :func:`make_backend_factory` resolves a spec and
stacks the preprocessor and the fault proxy around the chosen backend.
"""

from __future__ import annotations

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

    def test_add_cnf_from_an_offset(self):
        """``add_cnf(cnf, start)`` adds exactly clauses ``start`` onwards."""
        backend = InternalBackend()
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
        assert backend.name == "native"


class TestBackendSpecs:
    def test_auto_specs(self, monkeypatch):
        monkeypatch.delenv("CHECKFENCE_SIMPLIFY", raising=False)
        for spec in ("auto", ""):
            backend = make_backend_factory(spec)()
            assert isinstance(backend, InternalBackend)

    def test_env_default(self, native_solver, monkeypatch):
        monkeypatch.delenv("CHECKFENCE_SIMPLIFY", raising=False)
        library = native.library_path()
        monkeypatch.setenv("CHECKFENCE_SOLVER", f"ipasir:{library}")
        backend = make_backend_factory(None)()
        assert backend.name == "ipasir(repro-cdcl)"

    def test_unknown_spec_rejected(self):
        """The pure-Python kernel's ``internal`` spec is gone with it."""
        for spec in ("zchaff", "dimacs", "dimacs:kissat", "ipasir:", "native",
                     "internal"):
            with pytest.raises(ValueError, match="auto or ipasir:<path"):
                make_backend_factory(spec)

    def test_bare_ipasir_names_the_library_spec(self):
        """The bare ``ipasir`` spec names no library: it is rejected, and
        the error names the spec that does."""
        with pytest.raises(ValueError, match="ipasir:<path"):
            make_backend_factory("ipasir")

    def test_ipasir_library_loads_once_per_path(self, native_solver):
        path = native.library_path()
        factory = make_backend_factory(f"ipasir:{path}")
        first, second = factory(), factory()
        assert first._library is second._library
        assert ipasir.load_ipasir_library(path) is first._library
        assert first.name == "ipasir(repro-cdcl)"


class TestBackendStack:
    """The factory owns the one remaining solver-stack decision."""

    def test_native_kernel_runs_bare_by_default(
        self, native_solver, monkeypatch
    ):
        monkeypatch.delenv("CHECKFENCE_SIMPLIFY", raising=False)
        monkeypatch.delenv("CHECKFENCE_SOLVER", raising=False)
        factory = make_backend_factory()
        backend = factory()
        assert factory.preprocess is False
        assert factory.stack == ("auto", "", False)
        assert isinstance(backend, InternalBackend)
        assert isinstance(backend.solver, native_solver)
        assert backend.name == "native"

    @pytest.mark.parametrize("spec", ["auto", "ipasir"])
    def test_forced_preprocessor_engages_on_every_formula(
        self, spec, native_solver, monkeypatch
    ):
        """``CHECKFENCE_SIMPLIFY=1`` stacks the preprocessor over any
        backend, and it preprocesses even a two-clause formula."""
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "1")
        if spec == "ipasir":
            spec = f"ipasir:{native.library_path()}"
        factory = make_backend_factory(spec)
        backend = factory()
        assert factory.preprocess is True
        assert factory.stack[-1] is True
        assert isinstance(backend, SimplifyingBackend)
        assert backend.name == f"simplify+{backend.inner.name}"
        backend.add_clauses([[1, 2], [1, -2]])
        assert backend.solve() is True
        assert backend.simplify_stats.clauses_before == 2
        assert backend.model()[1] is True

    def test_simplify_zero_reads_as_unset(self, monkeypatch):
        """``CHECKFENCE_SIMPLIFY=0`` builds the same stack as no setting:
        the native kernel with no preprocessor."""

        def stack():
            factory = make_backend_factory("auto")
            backend = factory()
            return factory.stack, type(backend), backend.name

        monkeypatch.delenv("CHECKFENCE_SIMPLIFY", raising=False)
        unset = stack()
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "0")
        assert stack() == unset == (
            ("auto", "", False), InternalBackend, "native"
        )

    def test_fault_proxy_sits_inside_the_preprocessor(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_ENV, "solver-raise:1000000")
        monkeypatch.delenv("CHECKFENCE_SIMPLIFY", raising=False)
        backend = make_backend_factory("auto")()
        assert isinstance(backend, faults.FaultySolverProxy)
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "1")
        forced = make_backend_factory("auto")()
        assert isinstance(forced, SimplifyingBackend)
        assert isinstance(forced.inner, faults.FaultySolverProxy)

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
