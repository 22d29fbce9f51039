"""Tests for the pluggable solver backend layer.

The differential suite checks :class:`InternalBackend` against brute-force
truth-table enumeration on random small CNFs; the spec tests pin how
:func:`make_backend_factory` resolves a spec and stacks the preprocessor
and the fault proxy around the chosen backend.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import faults
from repro.encoding import encode_test
from repro.litmus.catalog import available_litmus_tests, compiled_litmus
from repro.memorymodel.base import get_model
from repro.sat import CNF
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
        for spec in ("zchaff", "dimacs", "dimacs:kissat", "ipasir:"):
            with pytest.raises(ValueError):
                make_backend_factory(spec)


class TestBackendStack:
    """The factory owns the one remaining solver-stack decision."""

    def test_preprocessor_wraps_by_default(self, monkeypatch):
        monkeypatch.delenv("CHECKFENCE_SIMPLIFY", raising=False)
        backend = make_backend_factory("internal")()
        assert isinstance(backend, SimplifyingBackend)
        assert isinstance(backend.inner, InternalBackend)
        assert backend.name == "simplify+internal"

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

            def add_clauses(self, clauses):
                events.append("add_clauses")
                return super().add_clauses(clauses)

        litmus = available_litmus_tests()["store-buffering"]
        encoded = encode_test(
            compiled_litmus(litmus), get_model("sc"),
            backend_factory=RecordingBackend,
        )
        assert encoded.solve()
        frozen, *rest = events
        assert frozen and frozen <= encoded.frozen_variables()
        assert rest and all(event == "add_clauses" for event in rest)
