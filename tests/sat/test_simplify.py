"""Tests for the in-process CNF preprocessor (:mod:`repro.sat.simplify`).

The differential suites compare :class:`SimplifyingBackend` (forced to
preprocess every formula) against brute-force truth tables and against the
bare native backend — including model *reconstruction* back onto the
original variable space, frozen-variable protection, incremental clause
additions after a solve (with reinstatement of eliminated variables), and
assumptions over simplified-away literals.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.sat import CNF
from repro.sat.backend import InternalBackend
from repro.sat.simplify import (
    Simplifier,
    SimplifyingBackend,
    simplify_cnf,
)


def forced_backend() -> SimplifyingBackend:
    """A simplifying backend over the native kernel (it preprocesses every
    formula, however small)."""
    return SimplifyingBackend(InternalBackend())


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


def satisfies(cnf_or_clauses, model: dict[int, bool]) -> bool:
    clauses = getattr(cnf_or_clauses, "clauses", cnf_or_clauses)
    return all(
        any(model.get(abs(l), False) == (l > 0) for l in clause)
        for clause in clauses
    )


def random_cnf(rng: random.Random) -> CNF:
    num_vars = rng.randint(1, 8)
    cnf = CNF()
    cnf.new_vars(num_vars)
    for _ in range(rng.randint(1, 24)):
        size = rng.randint(1, 3)
        cnf.add_clause([
            rng.randint(1, num_vars) * rng.choice([1, -1])
            for _ in range(size)
        ])
    return cnf


class TestDifferential:
    def test_verdict_and_reconstructed_model_vs_brute_force(self):
        rng = random.Random(20070607)
        for _ in range(300):
            cnf = random_cnf(rng)
            frozen = set(
                rng.sample(range(1, cnf.num_vars + 1),
                           rng.randint(0, cnf.num_vars))
            )
            backend = forced_backend()
            backend.freeze(frozen)
            backend.add_cnf(cnf)
            expected = brute_force_satisfiable(cnf)
            assert backend.solve() == expected, cnf.clauses
            if expected:
                # The reconstructed model must satisfy the ORIGINAL
                # formula, not just the simplified one.
                assert satisfies(cnf, backend.model()), cnf.clauses

    def test_values_of_matches_model_on_frozen_vars(self):
        rng = random.Random(11)
        for _ in range(100):
            cnf = random_cnf(rng)
            frozen = set(range(1, cnf.num_vars + 1, 2))
            backend = forced_backend()
            backend.freeze(frozen)
            backend.add_cnf(cnf)
            if backend.solve():
                model = backend.model()
                values = backend.values_of(sorted(frozen))
                for var in frozen:
                    assert values[var] == model[var]


class TestIncremental:
    def test_post_solve_additions_match_plain_backend(self):
        """Clauses added after the first solve — including clauses over
        variables the preprocessor eliminated (reinstatement) — keep the
        verdicts identical to a backend that never simplified."""
        rng = random.Random(23)
        for _ in range(150):
            cnf = random_cnf(rng)
            backend = forced_backend()
            backend.add_cnf(cnf)
            backend.solve()
            all_clauses = list(cnf.clauses)
            for _round in range(3):
                for _ in range(rng.randint(1, 5)):
                    size = rng.randint(1, 3)
                    clause = tuple(
                        rng.randint(1, cnf.num_vars) * rng.choice([1, -1])
                        for _ in range(size)
                    )
                    if len({abs(l) for l in clause}) != len(clause):
                        continue
                    backend.add_clause(clause)
                    all_clauses.append(clause)
                reference = InternalBackend()
                full = CNF(num_vars=cnf.num_vars)
                for clause in all_clauses:
                    full.add_clause(clause)
                reference.add_cnf(full)
                assumptions = [
                    rng.randint(1, cnf.num_vars) * rng.choice([1, -1])
                    for _ in range(rng.randint(0, 2))
                ]
                expected = reference.solve(assumptions=assumptions)
                got = backend.solve(assumptions=assumptions)
                assert got == expected, (all_clauses, assumptions)
                if got:
                    assert satisfies(all_clauses, backend.model())
                # A later assumption-free solve must not be contaminated.
                assert backend.solve() == reference.solve()

    def test_reinstatement_of_eliminated_variable(self):
        # v2 is a functionally defined AND-gate output (v2 <-> v1 & v3)
        # with two external uses; every other variable is frozen, so
        # bounded variable elimination can only remove v2.
        cnf = CNF()
        v1, v2, v3, v4, v5 = cnf.new_vars(5)
        cnf.add_clause([-v2, v1])
        cnf.add_clause([-v2, v3])
        cnf.add_clause([v2, -v1, -v3])
        cnf.add_clause([v2, v4])
        cnf.add_clause([v1, v3, v5])
        backend = forced_backend()
        backend.freeze([v1, v3, v4, v5])
        backend.add_cnf(cnf)
        assert backend.solve() is True
        assert backend.simplifier.is_eliminated(v2)
        # A new clause mentions the eliminated variable: its defining
        # clauses must be replayed, not dropped.
        backend.add_clause([v2])
        assert backend.solve() is True
        model = backend.model()
        assert model[v2] and model[v1] and model[v3]
        assert backend.simplify_stats.vars_reinstated >= 1
        backend.add_clause([-v1])
        assert backend.solve() is False

    def test_assumption_over_eliminated_variable(self):
        cnf = CNF()
        v1, v2, v3 = cnf.new_vars(3)
        cnf.add_clause([-v2, v1])
        cnf.add_clause([-v2, v3])
        cnf.add_clause([v2, -v1, -v3])
        cnf.add_clause([v1, v3])
        backend = forced_backend()
        backend.add_cnf(cnf)
        assert backend.solve() is True
        if backend.simplifier.is_eliminated(v2):
            assert backend.solve(assumptions=[v2]) is True
            assert backend.model()[v1] and backend.model()[v3]
            assert backend.solve(assumptions=[-v2, v1, v3]) is False

    def test_assumption_fixed_false_is_unsat(self):
        cnf = CNF()
        v1, v2 = cnf.new_vars(2)
        cnf.add_clause([v1])
        cnf.add_clause([v1, v2])
        backend = forced_backend()
        backend.add_cnf(cnf)
        assert backend.solve() is True
        # v1 was fixed by unit propagation; assuming its negation must
        # fail without ever reaching the inner solver.
        assert backend.solve(assumptions=[-v1]) is False
        assert backend.solve(assumptions=[v1]) is True


class TestFrozenProtection:
    def test_frozen_variables_survive(self):
        rng = random.Random(5)
        for _ in range(100):
            cnf = random_cnf(rng)
            frozen = set(
                rng.sample(range(1, cnf.num_vars + 1),
                           rng.randint(1, cnf.num_vars))
            )
            backend = forced_backend()
            backend.freeze(frozen)
            backend.add_cnf(cnf)
            backend.solve()
            simplifier = backend.simplifier
            for var in frozen:
                assert not simplifier.is_eliminated(var)
                assert var not in simplifier.subst

    def test_unfrozen_tseitin_definitions_are_eliminated(self):
        # A chain of AND-gate definitions with a single external use is
        # the textbook elimination target.
        cnf = CNF()
        inputs = cnf.new_vars(4)
        gates = []
        previous = inputs[0]
        for bit in inputs[1:]:
            gate = cnf.new_var()
            cnf.add_clause([-gate, previous])
            cnf.add_clause([-gate, bit])
            cnf.add_clause([gate, -previous, -bit])
            gates.append(gate)
            previous = gate
        cnf.add_unit(previous)
        backend = forced_backend()
        backend.freeze(inputs)
        backend.add_cnf(cnf)
        assert backend.solve() is True
        stats = backend.simplify_stats
        assert stats.vars_eliminated + stats.units_fixed + stats.equiv_merged > 0
        model = backend.model()
        assert satisfies(cnf, model)
        assert all(model[v] for v in inputs)


class TestEngagement:
    def test_forced_backend_engages(self):
        cnf = CNF()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a, b])
        cnf.add_clause([a, -b])
        backend = forced_backend()
        backend.add_cnf(cnf)
        assert backend.solve() is True
        assert backend.name == "simplify+native"
        assert backend.simplify_stats.clauses_before == 2
        assert backend.model()[a] is True


class TestSimplifierUnit:
    def test_unsat_by_unit_propagation(self):
        cnf = CNF()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a])
        cnf.add_clause([-a, b])
        cnf.add_clause([-b])
        backend = forced_backend()
        backend.add_cnf(cnf)
        assert backend.solve() is False

    def test_equivalent_literals_are_merged(self):
        cnf = CNF()
        a, b, c = cnf.new_vars(3)
        # a <-> b (two implications) plus a use of each.
        cnf.add_clause([-a, b])
        cnf.add_clause([a, -b])
        cnf.add_clause([a, c])
        cnf.add_clause([b, c])
        survivors, simplifier = simplify_cnf(cnf)
        assert simplifier.stats.equiv_merged >= 1
        merged = {abs(l) for clause in survivors for l in clause}
        assert not {a, b} <= merged  # one of the pair was substituted away

    def test_subsumption_removes_superset(self):
        cnf = CNF()
        a, b, c = cnf.new_vars(3)
        cnf.add_clause([a, b])
        cnf.add_clause([a, b, c])
        cnf.add_clause([-a, c])
        cnf.add_clause([-b, -c])
        survivors, simplifier = simplify_cnf(
            cnf, frozen=[a, b, c]
        )
        assert simplifier.stats.clauses_subsumed >= 1
        assert (a, b, c) not in survivors

    def test_self_subsuming_resolution_strengthens(self):
        cnf = CNF()
        a, b, c = cnf.new_vars(3)
        cnf.add_clause([a, b])          # C
        cnf.add_clause([a, -b, c])      # D -> strengthened to (a, c)
        cnf.add_clause([-a, c])
        cnf.add_clause([-c, b])
        survivors, simplifier = simplify_cnf(cnf, frozen=[a, b, c])
        assert simplifier.stats.literals_strengthened >= 1

    def test_pure_literal_is_recorded_for_reconstruction(self):
        cnf = CNF()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a, b])  # a occurs only positively
        backend = forced_backend()
        backend.freeze([b])
        backend.add_cnf(cnf)
        assert backend.solve() is True
        assert satisfies(cnf, backend.model())

    def test_preprocess_runs_once(self):
        simplifier = Simplifier()
        simplifier.preprocess([(1, 2)])
        with pytest.raises(RuntimeError):
            simplifier.preprocess([(1,)])


class TestSolverValuesOf:
    def test_values_of_matches_model(self, native_solver):
        cnf = CNF()
        a, b, c = cnf.new_vars(3)
        cnf.add_clause([a])
        cnf.add_clause([-a, b])
        solver = native_solver(cnf)
        assert solver.values_of([a, b]) == {}  # no model yet
        assert solver.solve() is True
        model = solver.model()
        assert solver.values_of([a, b, c]) == {
            a: model[a], b: model[b], c: model[c]
        }
        # Out-of-range variables read as False instead of raising.
        assert solver.values_of([99])[99] is False
