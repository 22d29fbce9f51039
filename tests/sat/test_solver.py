"""Unit and property tests for the CDCL kernel.

Every test that takes the ``kernel`` fixture runs against the native C
kernel (:class:`repro.sat.native.NativeSolver`), and the property tests
check it against brute-force enumeration.  The ``SolverStats`` tests
cover the counter record every backend reports.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import CNF, SolverStats


@pytest.fixture(scope="module")
def kernel(native_solver):
    """A solver class: ``kernel(cnf)`` builds a solver over ``cnf``."""
    return native_solver


def solve_cnf(kernel, cnf):
    """One-shot solve: a model, or None when UNSAT."""
    solver = kernel(cnf)
    return solver.model() if solver.solve() else None


def pigeonhole(cnf: CNF, pigeons: int, holes: int) -> list[list[int]]:
    """Add the pigeonhole constraints; returns the variable grid."""
    grid = [[cnf.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        cnf.add_clause(grid[p])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-grid[p1][h], -grid[p2][h]])
    return grid


def brute_force_satisfiable(cnf: CNF) -> bool:
    """Reference check by enumerating all assignments (small formulas only)."""
    variables = list(range(1, cnf.num_vars + 1))
    for bits in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause)
            for clause in cnf.clauses
        ):
            return True
    return not cnf.clauses or cnf.num_vars == 0 and not cnf.clauses


def check_model(cnf: CNF, model: dict[int, bool]) -> bool:
    return all(
        any(model.get(abs(l), False) == (l > 0) for l in clause)
        for clause in cnf.clauses
    )


class TestBasics:
    def test_empty_formula_is_sat(self, kernel):
        solver = kernel()
        assert solver.solve() is True

    def test_single_unit_clause(self, kernel):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_unit(v)
        model = solve_cnf(kernel, cnf)
        assert model is not None
        assert model[v] is True

    def test_contradictory_units_unsat(self, kernel):
        cnf = CNF()
        v = cnf.new_var()
        cnf.add_unit(v)
        cnf.add_unit(-v)
        assert solve_cnf(kernel, cnf) is None

    def test_simple_sat_instance(self, kernel):
        cnf = CNF()
        a, b, c = cnf.new_vars(3)
        cnf.add_clause([a, b])
        cnf.add_clause([-a, c])
        cnf.add_clause([-b, c])
        model = solve_cnf(kernel, cnf)
        assert model is not None
        assert check_model(cnf, model)

    def test_implication_chain_propagates(self, kernel):
        cnf = CNF()
        variables = cnf.new_vars(20)
        cnf.add_unit(variables[0])
        for x, y in zip(variables, variables[1:]):
            cnf.add_clause([-x, y])
        model = solve_cnf(kernel, cnf)
        assert model is not None
        assert all(model[v] for v in variables)

    def test_unsat_chain(self, kernel):
        cnf = CNF()
        variables = cnf.new_vars(10)
        cnf.add_unit(variables[0])
        for x, y in zip(variables, variables[1:]):
            cnf.add_clause([-x, y])
        cnf.add_unit(-variables[-1])
        assert solve_cnf(kernel, cnf) is None

    def test_tautology_is_dropped(self):
        cnf = CNF()
        a = cnf.new_var()
        cnf.add_clause([a, -a])
        assert cnf.num_clauses == 0

    def test_zero_literal_rejected(self):
        cnf = CNF()
        with pytest.raises(ValueError):
            cnf.add_clause([0])

    def test_xor_constraints(self, kernel):
        # x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1 is unsatisfiable.
        cnf = CNF()
        x1, x2, x3 = cnf.new_vars(3)
        for a, b in [(x1, x2), (x2, x3), (x1, x3)]:
            cnf.add_clause([a, b])
            cnf.add_clause([-a, -b])
        assert solve_cnf(kernel, cnf) is None


class TestPigeonhole:
    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_pigeonhole_unsat(self, kernel, holes):
        """n+1 pigeons cannot fit in n holes — classic hard UNSAT family."""
        cnf = CNF()
        pigeonhole(cnf, holes + 1, holes)
        assert solve_cnf(kernel, cnf) is None

    @pytest.mark.parametrize("holes", [3, 4, 5])
    def test_exact_fit_sat(self, kernel, holes):
        cnf = CNF()
        pigeonhole(cnf, holes, holes)
        model = solve_cnf(kernel, cnf)
        assert model is not None
        assert check_model(cnf, model)


class TestIncremental:
    def test_blocking_clauses_enumerate_all_models(self, kernel):
        cnf = CNF()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a, b])
        solver = kernel(cnf)
        models = []
        while solver.solve():
            model = solver.model()
            models.append((model[a], model[b]))
            solver.add_clause(
                [(-a if model[a] else a), (-b if model[b] else b)]
            )
        assert sorted(models) == [(False, True), (True, False), (True, True)]

    def test_assumptions_sat_and_unsat(self, kernel):
        cnf = CNF()
        a, b = cnf.new_vars(2)
        cnf.add_clause([-a, b])
        solver = kernel(cnf)
        assert solver.solve(assumptions=[a]) is True
        assert solver.model()[b] is True
        solver.add_clause([-b])
        assert solver.solve(assumptions=[a]) is False
        # Without the assumption the formula is still satisfiable.
        assert solver.solve() is True
        assert solver.model()[a] is False

    def test_adding_clauses_between_solves(self, kernel):
        cnf = CNF()
        variables = cnf.new_vars(4)
        solver = kernel(cnf)
        assert solver.solve() is True
        solver.add_clause([variables[0]])
        solver.add_clause([-variables[0], variables[1]])
        assert solver.solve() is True
        model = solver.model()
        assert model[variables[0]] and model[variables[1]]
        solver.add_clause([-variables[1]])
        assert solver.solve() is False

    def test_unsat_under_assumptions_leaves_solver_reusable(self, kernel):
        """Regression test: an UNSAT-under-assumptions result must not poison
        the solver — later solves (with other assumptions or none) must still
        work and produce valid models."""
        cnf = CNF()
        a, b, c = cnf.new_vars(3)
        cnf.add_clause([-a, b])
        cnf.add_clause([-b, c])
        cnf.add_clause([-a, -c])  # a -> b -> c but a forbids c: a must be False
        solver = kernel(cnf)
        assert solver.solve(assumptions=[a]) is False
        # The solver is still usable: plain solve, solve under the opposite
        # assumption, and incremental clause addition all behave.
        assert solver.solve() is True
        assert check_model(cnf, solver.model())
        assert solver.solve(assumptions=[-a]) is True
        model = solver.model()
        assert model[a] is False
        assert check_model(cnf, model)
        solver.add_clause([b])
        assert solver.solve() is True
        assert solver.model()[b] is True
        assert solver.solve(assumptions=[a]) is False
        assert solver.solve(assumptions=[c]) is True

    def test_unsat_under_assumptions_many_rounds(self, kernel):
        """Alternating UNSAT/SAT assumption queries on one solver instance
        (the shape of fence synthesis's probes on one warm backend)."""
        cnf = CNF()
        variables = cnf.new_vars(12)
        cnf.add_unit(variables[0])
        for x, y in zip(variables, variables[1:]):
            cnf.add_clause([-x, y])
        solver = kernel(cnf)
        for _ in range(5):
            assert solver.solve(assumptions=[-variables[-1]]) is False
            assert solver.solve(assumptions=[variables[-1]]) is True
            assert solver.solve() is True
            assert check_model(cnf, solver.model())


class TestStats:
    def test_stats_populated(self, kernel):
        cnf = CNF()
        variables = cnf.new_vars(8)
        for i in range(0, 8, 2):
            cnf.add_clause([variables[i], variables[i + 1]])
            cnf.add_clause([-variables[i], -variables[i + 1]])
        solver = kernel(cnf)
        assert solver.solve() is True
        assert solver.total_stats.decisions >= 1
        assert solver.total_stats.propagations >= 1

    def test_since_is_a_delta_except_for_the_deepest_level(self):
        earlier = SolverStats(conflicts=4, max_decision_level=6)
        later = earlier.copy()
        later.conflicts, later.max_decision_level = 7, 9
        assert later.since(earlier) == SolverStats(
            conflicts=3, max_decision_level=9
        )
        assert earlier == SolverStats(conflicts=4, max_decision_level=6)


class TestTrustedBulkAdd:
    def test_matches_per_clause_add(self, kernel):
        cnf = CNF()
        a, b, c = cnf.new_vars(3)
        cnf.add_clause([a, b])
        cnf.add_clause([-a, c])
        cnf.add_clause([-b, -c])
        bulk = kernel()
        bulk.ensure_vars(cnf.num_vars)
        assert bulk.add_clauses_trusted(cnf.clauses) is True
        single = kernel(cnf)
        assert bulk.solve() == single.solve() is True
        assert check_model(cnf, bulk.model())

    def test_bulk_unit_conflict_is_unsat(self, kernel):
        cnf = CNF()
        v = cnf.new_var()
        solver = kernel()
        solver.ensure_vars(1)
        assert solver.add_clauses_trusted([(v,), (-v,)]) is False
        assert solver.solve() is False


@st.composite
def random_cnf(draw):
    num_vars = draw(st.integers(min_value=1, max_value=8))
    num_clauses = draw(st.integers(min_value=1, max_value=24))
    cnf = CNF()
    cnf.new_vars(num_vars)
    for _ in range(num_clauses):
        size = draw(st.integers(min_value=1, max_value=3))
        clause = [
            draw(st.integers(min_value=1, max_value=num_vars))
            * (1 if draw(st.booleans()) else -1)
            for _ in range(size)
        ]
        cnf.add_clause(clause)
    return cnf


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(random_cnf())
    def test_matches_brute_force(self, kernel, cnf):
        expected = brute_force_satisfiable(cnf)
        model = solve_cnf(kernel, cnf)
        if expected:
            assert model is not None
            assert check_model(cnf, model)
        else:
            assert model is None

    @settings(max_examples=30, deadline=None)
    @given(random_cnf())
    def test_model_satisfies_formula(self, kernel, cnf):
        model = solve_cnf(kernel, cnf)
        if model is not None:
            assert check_model(cnf, model)
