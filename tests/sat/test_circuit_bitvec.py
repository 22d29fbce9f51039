"""Tests for the gate builder (Tseitin clauses per gate) and bit-vectors."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import BitVecBuilder, Circuit, width_for
from repro.sat.native import NativeSolver


def value_of(literal: int, model: dict[int, bool]) -> bool:
    return model[abs(literal)] == (literal > 0)


def solve_handle(circuit: Circuit, handle: int, extra_asserts=()):
    """Assert the handles on a copy of the builder's CNF and solve it."""
    cnf = circuit.cnf.copy()
    for h in (handle, *extra_asserts):
        cnf.add_unit(h)
    solver = NativeSolver(cnf)
    sat = solver.solve()
    return sat, solver.model()


class TestCircuit:
    def test_constants(self):
        c = Circuit()
        assert c.and_(c.TRUE, c.TRUE) == c.TRUE
        assert c.and_(c.TRUE, c.FALSE) == c.FALSE
        assert c.or_(c.FALSE, c.FALSE) == c.FALSE
        assert c.or_(c.TRUE, c.FALSE) == c.TRUE

    def test_constant_true_is_the_forced_first_variable(self):
        c = Circuit()
        assert (c.TRUE, c.FALSE) == (1, -1)
        assert c.cnf.num_vars == 1
        assert list(c.cnf.clauses) == [(1,)]
        sat, model = solve_handle(c, c.TRUE)
        assert sat and model[1] is True
        assert solve_handle(c, c.FALSE)[0] is False

    def test_handles_are_cnf_literals(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        assert (a, b) == (2, 3)
        assert c.cnf.names[a] == "a"
        g = c.and_(a, b)
        assert g == c.cnf.num_vars == 4
        assert sorted(c.cnf.clauses[1:]) == sorted(
            [(-g, a), (-g, b), (g, -a, -b)]
        )

    def test_structural_hashing(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        assert c.and_(a, b) == c.and_(b, a)
        assert c.or_(a, b) == c.or_(b, a)

    def test_simplifications(self):
        c = Circuit()
        a = c.var("a")
        assert c.and_(a, a) == a
        assert c.and_(a, -a) == c.FALSE
        assert c.or_(a, -a) == c.TRUE
        assert c.ite(c.TRUE, a, -a) == a
        assert c.ite(c.FALSE, a, -a) == -a
        assert c.ite(c.var("cond"), a, a) == a

    def test_and_is_satisfiable_only_when_inputs_true(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        sat, model = solve_handle(c, c.and_(a, b))
        assert sat
        assert value_of(a, model) and value_of(b, model)

    def test_contradiction_unsat(self):
        c = Circuit()
        a = c.var("a")
        node = c.and_(c.or_(a, c.FALSE), -a)
        sat, _ = solve_handle(c, node)
        assert not sat

    def test_xor_iff(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        sat, model = solve_handle(c, c.and_(c.xor(a, b), a))
        assert sat
        assert value_of(a, model) is True
        assert value_of(b, model) is False
        sat, _ = solve_handle(c, c.and_(c.iff(a, b), a, -b))
        assert not sat

    def test_implies(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        sat, _ = solve_handle(c, c.and_(c.implies(a, b), a, -b))
        assert not sat

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=6))
    def test_and_many_matches_python_all(self, values):
        c = Circuit()
        handles = [c.TRUE if v else c.FALSE for v in values]
        assert (c.and_many(handles) == c.TRUE) == all(values)
        assert (c.or_many(handles) == c.TRUE) == any(values)


#: Python meaning of each builder operation, over operand values.
SEMANTICS = {
    "and": lambda v: v[0] and v[1],
    "and3": lambda v: v[0] and v[1] and v[2],
    "and_many": all,
    "or": lambda v: v[0] or v[1],
    "or_many": any,
    "implies": lambda v: not v[0] or v[1],
    "xor": lambda v: v[0] != v[1],
    "iff": lambda v: v[0] == v[1],
    "ite": lambda v: v[1] if v[0] else v[2],
    "not": lambda v: not v[0],
}

ARITY = {"and": 2, "and3": 3, "or": 2, "implies": 2, "xor": 2, "iff": 2,
         "ite": 3, "not": 1}


def _apply(circuit: Circuit, op: str, lits: list[int]) -> int:
    if op == "and":
        return circuit.and_(lits[0], lits[1])
    if op == "and3":
        return circuit.and_(*lits)
    if op == "and_many":
        return circuit.and_many(lits)
    if op == "or":
        return circuit.or_(lits[0], lits[1])
    if op == "or_many":
        return circuit.or_many(lits)
    if op == "not":
        return -lits[0]
    return getattr(circuit, op)(*lits)


@st.composite
def gate_dags(draw):
    """(input count, steps): each step applies one builder operation to
    earlier handles (inputs, the two constants, earlier gates), each
    operand possibly complemented.  The operations cover all three gate
    kinds (AND, XOR, ITE) and everything derived from them, so operands
    often repeat, complement each other or are constants, and the
    folding rules run as well as the gates' clauses."""
    inputs = draw(st.integers(1, 5))
    steps = draw(st.lists(
        st.tuples(
            st.sampled_from(sorted(SEMANTICS)),
            st.lists(st.integers(0, 1 << 16), min_size=4, max_size=4),
            st.lists(st.booleans(), min_size=4, max_size=4),
            st.integers(2, 4),
        ),
        min_size=1,
        max_size=12,
    ))
    return inputs, steps


class TestGateClauses:
    @settings(max_examples=60, deadline=None)
    @given(gate_dags())
    def test_clauses_force_every_gate_to_its_value(self, dag):
        """For every input assignment, the builder's CNF has a model whose
        gate literals match a Python evaluation of the DAG, and no model
        with any other gate values: each gate's Tseitin clauses hold in
        both directions."""
        inputs, steps = dag
        circuit = Circuit()
        handles = [circuit.var(f"x{i}") for i in range(inputs)]
        handles += [circuit.TRUE, circuit.FALSE]
        plan: list[tuple[str, list[int], list[bool]]] = []
        for op, picks, negations, width in steps:
            arity = ARITY.get(op, width)
            operands = [p % len(handles) for p in picks[:arity]]
            negated = negations[:arity]
            lits = [
                -handles[o] if n else handles[o]
                for o, n in zip(operands, negated)
            ]
            handles.append(_apply(circuit, op, lits))
            plan.append((op, operands, negated))

        for assignment in itertools.product((False, True), repeat=inputs):
            expected = list(assignment) + [True, False]
            for op, operands, negated in plan:
                expected.append(SEMANTICS[op](
                    [expected[o] != n for o, n in zip(operands, negated)]
                ))
            cnf = circuit.cnf.copy()
            for lit, value in zip(handles, assignment):
                cnf.add_unit(lit if value else -lit)
            solver = NativeSolver(cnf)
            assert solver.solve()
            model = solver.model()
            assert [value_of(h, model) for h in handles] == expected
            cnf.add_clause(-h if v else h for h, v in zip(handles, expected))
            assert not NativeSolver(cnf).solve()


class TestBitVec:
    def setup_method(self):
        self.circuit = Circuit()
        self.bv = BitVecBuilder(self.circuit)

    def _concrete(self, vec):
        """Decode a constant vector without solving."""
        return BitVecBuilder.decode(vec, lambda h: h == self.circuit.TRUE)

    def test_const_roundtrip(self):
        for value in [0, 1, 5, 13, 255]:
            width = max(1, value.bit_length())
            vec = self.bv.const(value, width)
            assert self._concrete(vec) == value

    def test_const_overflow_rejected(self):
        with pytest.raises(ValueError):
            self.bv.const(4, 2)
        with pytest.raises(ValueError):
            self.bv.const(-1, 4)

    def test_eq_of_constants(self):
        a = self.bv.const(6, 4)
        b = self.bv.const(6, 4)
        d = self.bv.const(7, 4)
        assert self.bv.eq(a, b) == self.circuit.TRUE
        assert self.bv.eq(a, d) == self.circuit.FALSE

    def test_zero_extend_and_mixed_width_eq(self):
        a = self.bv.const(3, 2)
        b = self.bv.const(3, 5)
        assert self.bv.eq(a, b) == self.circuit.TRUE

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 31), st.integers(0, 31))
    def test_add_matches_python(self, x, y):
        a = self.bv.const(x, 6)
        b = self.bv.const(y, 6)
        assert self._concrete(self.bv.add(a, b)) == (x + y) % 64

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_sub_matches_python(self, x, y):
        a = self.bv.const(x, 6)
        b = self.bv.const(y, 6)
        assert self._concrete(self.bv.sub(a, b)) == (x - y) % 64

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_comparisons_match_python(self, x, y):
        a = self.bv.const(x, 6)
        b = self.bv.const(y, 6)
        assert (self.bv.ult(a, b) == self.circuit.TRUE) == (x < y)
        assert (self.bv.ule(a, b) == self.circuit.TRUE) == (x <= y)
        assert (self.bv.ugt(a, b) == self.circuit.TRUE) == (x > y)
        assert (self.bv.uge(a, b) == self.circuit.TRUE) == (x >= y)

    def test_symbolic_arithmetic_and_comparisons_match_python(self):
        # On fresh vectors every sum, carry and comparison bit is a gate,
        # not a folded constant.  Pin both inputs to each pair of 3-bit
        # values and decode what the clauses force.
        a = self.bv.fresh(3, "a")
        b = self.bv.fresh(3, "b")
        total, difference = self.bv.add(a, b), self.bv.sub(a, b)
        predicates = {
            "ult": (self.bv.ult(a, b), lambda x, y: x < y),
            "ule": (self.bv.ule(a, b), lambda x, y: x <= y),
            "ugt": (self.bv.ugt(a, b), lambda x, y: x > y),
            "uge": (self.bv.uge(a, b), lambda x, y: x >= y),
            "eq": (self.bv.eq(a, b), lambda x, y: x == y),
        }
        for x, y in itertools.product(range(8), repeat=2):
            pins = [
                bit if (value >> i) & 1 else -bit
                for vec, value in ((a, x), (b, y))
                for i, bit in enumerate(vec.bits)
            ]
            sat, model = solve_handle(self.circuit, self.circuit.TRUE, pins)
            assert sat
            for vec, expected in ((total, x + y), (difference, x - y)):
                assert BitVecBuilder.decode(
                    vec, lambda h: value_of(h, model)
                ) == expected % 8
            for name, (handle, meaning) in predicates.items():
                assert value_of(handle, model) == meaning(x, y), (name, x, y)

    def test_ult_is_two_gates_and_add_three_gates_per_bit(self):
        # ult: one XOR and one ITE per bit (the first ITE, with a FALSE
        # else branch, folds to an AND).  add: the bit's XOR, the sum XOR
        # and the carry ITE, sharing the first; the first bit has no carry
        # in, so its sum is the XOR and its carry an AND.
        width = 4
        for operation, gates in (("ult", 2 * width), ("add", 3 * width - 1)):
            circuit = Circuit()
            bv = BitVecBuilder(circuit)
            a, b = bv.fresh(width, "a"), bv.fresh(width, "b")
            before = circuit.cnf.num_vars
            getattr(bv, operation)(a, b)
            assert circuit.cnf.num_vars - before == gates, operation

    def test_symbolic_addition_solved(self):
        a = self.bv.fresh(4, "a")
        b = self.bv.fresh(4, "b")
        total = self.bv.add(a, b)
        constraint = self.circuit.and_(
            self.bv.eq_const(total, 9), self.bv.eq_const(a, 4)
        )
        sat, model = solve_handle(self.circuit, constraint)
        assert sat
        decoded_b = BitVecBuilder.decode(b, lambda h: value_of(h, model))
        assert decoded_b == 5

    def test_symbolic_inequality_unsat(self):
        a = self.bv.fresh(3, "a")
        constraint = self.circuit.and_(
            self.bv.ult(a, self.bv.const(2, 3)),
            self.bv.eq_const(a, 5),
        )
        sat, _ = solve_handle(self.circuit, constraint)
        assert not sat

    def test_ite_select(self):
        cond = self.circuit.var("cond")
        a = self.bv.const(3, 4)
        b = self.bv.const(12, 4)
        picked = self.bv.ite(cond, a, b)
        constraint = self.circuit.and_(cond, self.bv.eq_const(picked, 3))
        sat, _ = solve_handle(self.circuit, constraint)
        assert sat
        constraint = self.circuit.and_(-cond, self.bv.eq_const(picked, 3))
        sat, _ = solve_handle(self.circuit, constraint)
        assert not sat

    def test_select_table(self):
        index = self.bv.fresh(2, "idx")
        table = [self.bv.const(v, 4) for v in (7, 3, 9, 1)]
        out = self.bv.select(index, table, self.bv.const(0, 4))
        constraint = self.circuit.and_(
            self.bv.eq_const(index, 2), self.bv.eq_const(out, 9)
        )
        sat, _ = solve_handle(self.circuit, constraint)
        assert sat

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 255))
    def test_width_for(self, value):
        width = width_for(value)
        assert value < (1 << width)
        if value > 1:
            assert value >= (1 << (width - 1))
