"""Tests for the circuit layer (Tseitin lowering) and bit-vectors."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import BitVecBuilder, Circuit, CnfLowering, Solver, width_for


def solve_handle(circuit: Circuit, handle: int, extra_asserts=()):
    """Lower the circuit, assert the handle, and solve."""
    lowering = CnfLowering(circuit)
    lowering.assert_true(handle)
    for h in extra_asserts:
        lowering.assert_true(h)
    solver = Solver(lowering.cnf)
    sat = solver.solve()
    return sat, solver, lowering


class TestCircuit:
    def test_constants(self):
        c = Circuit()
        assert c.and_(c.TRUE, c.TRUE) == c.TRUE
        assert c.and_(c.TRUE, c.FALSE) == c.FALSE
        assert c.or_(c.FALSE, c.FALSE) == c.FALSE
        assert c.or_(c.TRUE, c.FALSE) == c.TRUE

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
        sat, solver, lowering = solve_handle(c, c.and_(a, b))
        assert sat
        model = solver.model()
        assert lowering.evaluate(a, model) and lowering.evaluate(b, model)

    def test_contradiction_unsat(self):
        c = Circuit()
        a = c.var("a")
        node = c.and_(c.or_(a, c.FALSE), -a)
        sat, _, _ = solve_handle(c, node)
        assert not sat

    def test_xor_iff(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        sat, solver, lowering = solve_handle(c, c.and_(c.xor(a, b), a))
        assert sat
        model = solver.model()
        assert lowering.evaluate(a, model) is True
        assert lowering.evaluate(b, model) is False
        sat, _, _ = solve_handle(c, c.and_(c.iff(a, b), a, -b))
        assert not sat

    def test_implies(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        sat, _, _ = solve_handle(c, c.and_(c.implies(a, b), a, -b))
        assert not sat

    def test_evaluate_without_lowering_structural(self):
        c = Circuit()
        node = c.and_(c.TRUE, c.TRUE)
        lowering = CnfLowering(c)
        assert lowering.evaluate(node, {}) is True

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=6))
    def test_and_many_matches_python_all(self, values):
        c = Circuit()
        handles = [c.TRUE if v else c.FALSE for v in values]
        assert (c.and_many(handles) == c.TRUE) == all(values)
        assert (c.or_many(handles) == c.TRUE) == any(values)


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

    def test_symbolic_addition_solved(self):
        a = self.bv.fresh(4, "a")
        b = self.bv.fresh(4, "b")
        total = self.bv.add(a, b)
        constraint = self.circuit.and_(
            self.bv.eq_const(total, 9), self.bv.eq_const(a, 4)
        )
        sat, solver, lowering = solve_handle(self.circuit, constraint)
        assert sat
        model = solver.model()
        decoded_b = BitVecBuilder.decode(
            b, lambda h: lowering.evaluate(h, model)
        )
        assert decoded_b == 5

    def test_symbolic_inequality_unsat(self):
        a = self.bv.fresh(3, "a")
        constraint = self.circuit.and_(
            self.bv.ult(a, self.bv.const(2, 3)),
            self.bv.eq_const(a, 5),
        )
        sat, _, _ = solve_handle(self.circuit, constraint)
        assert not sat

    def test_ite_select(self):
        cond = self.circuit.var("cond")
        a = self.bv.const(3, 4)
        b = self.bv.const(12, 4)
        picked = self.bv.ite(cond, a, b)
        constraint = self.circuit.and_(cond, self.bv.eq_const(picked, 3))
        sat, _, _ = solve_handle(self.circuit, constraint)
        assert sat
        constraint = self.circuit.and_(-cond, self.bv.eq_const(picked, 3))
        sat, _, _ = solve_handle(self.circuit, constraint)
        assert not sat

    def test_select_table(self):
        index = self.bv.fresh(2, "idx")
        table = [self.bv.const(v, 4) for v in (7, 3, 9, 1)]
        out = self.bv.select(index, table, self.bv.const(0, 4))
        constraint = self.circuit.and_(
            self.bv.eq_const(index, 2), self.bv.eq_const(out, 9)
        )
        sat, _, _ = solve_handle(self.circuit, constraint)
        assert sat

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 255))
    def test_width_for(self, value):
        width = width_for(value)
        assert value < (1 << width)
        if value > 1:
            assert value >= (1 << (width - 1))
