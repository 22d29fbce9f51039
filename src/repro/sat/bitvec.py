"""Fixed-width bit-vectors over :class:`repro.sat.circuit.Circuit`.

The back-end encodes every LSL value as an unsigned bit-vector whose width is
chosen by the range analysis (Section 3.4 of the paper).  This module
provides the small arithmetic vocabulary the encoder needs: constants, fresh
symbolic vectors, equality, multiplexers, addition/subtraction by constants,
and unsigned comparisons.

Bit order is least-significant-bit first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.sat.circuit import Circuit


@dataclass(frozen=True)
class BitVec:
    """A vector of circuit handles, LSB first."""

    bits: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __getitem__(self, index: int) -> int:
        return self.bits[index]


class BitVecBuilder:
    """Constructs bit-vector terms in a given circuit."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit

    # ------------------------------------------------------------- creation

    def const(self, value: int, width: int) -> BitVec:
        if value < 0:
            raise ValueError("bit-vectors are unsigned")
        if width > 0 and value >= (1 << width):
            raise ValueError(f"constant {value} does not fit in {width} bits")
        bits = tuple(
            self.circuit.TRUE if (value >> i) & 1 else self.circuit.FALSE
            for i in range(width)
        )
        return BitVec(bits)

    def fresh(self, width: int, name: str = "bv") -> BitVec:
        bits = tuple(self.circuit.var(f"{name}.{i}") for i in range(width))
        return BitVec(bits)

    def from_bool(self, handle: int, width: int = 1) -> BitVec:
        """Embed a single boolean as a bit-vector (zero-extended)."""
        bits = [handle] + [self.circuit.FALSE] * (width - 1)
        return BitVec(tuple(bits))

    # ------------------------------------------------------------ structure

    def zero_extend(self, vec: BitVec, width: int) -> BitVec:
        if vec.width >= width:
            return BitVec(vec.bits[:width])
        return BitVec(vec.bits + (self.circuit.FALSE,) * (width - vec.width))

    def match_widths(self, a: BitVec, b: BitVec) -> tuple[BitVec, BitVec]:
        width = max(a.width, b.width)
        return self.zero_extend(a, width), self.zero_extend(b, width)

    # ------------------------------------------------------------ predicates

    def eq(self, a: BitVec, b: BitVec) -> int:
        a, b = self.match_widths(a, b)
        return self.circuit.and_many(
            self.circuit.iff(x, y) for x, y in zip(a.bits, b.bits)
        )

    def ne(self, a: BitVec, b: BitVec) -> int:
        return -self.eq(a, b)

    def eq_const(self, a: BitVec, value: int) -> int:
        return self.eq(a, self.const(value, a.width))

    def is_zero(self, a: BitVec) -> int:
        return self.circuit.and_many(-bit for bit in a.bits)

    def ult(self, a: BitVec, b: BitVec) -> int:
        """Unsigned a < b."""
        a, b = self.match_widths(a, b)
        result = self.circuit.FALSE
        for x, y in zip(a.bits, b.bits):  # LSB to MSB
            bit_lt = self.circuit.and_(-x, y)
            bit_eq = self.circuit.iff(x, y)
            result = self.circuit.or_(bit_lt, self.circuit.and_(bit_eq, result))
        return result

    def ule(self, a: BitVec, b: BitVec) -> int:
        return self.circuit.or_(self.ult(a, b), self.eq(a, b))

    def ugt(self, a: BitVec, b: BitVec) -> int:
        return self.ult(b, a)

    def uge(self, a: BitVec, b: BitVec) -> int:
        return self.ule(b, a)

    # ------------------------------------------------------------ arithmetic

    def add(self, a: BitVec, b: BitVec) -> BitVec:
        """Ripple-carry addition, truncated to max(width(a), width(b))."""
        a, b = self.match_widths(a, b)
        circuit = self.circuit
        carry = circuit.FALSE
        out = []
        for x, y in zip(a.bits, b.bits):
            s = circuit.xor(circuit.xor(x, y), carry)
            carry = circuit.or_(
                circuit.and_(x, y),
                circuit.and_(carry, circuit.xor(x, y)),
            )
            out.append(s)
        return BitVec(tuple(out))

    def add_const(self, a: BitVec, value: int) -> BitVec:
        if value == 0:
            return a
        return self.add(a, self.const(value % (1 << a.width), a.width))

    def negate(self, a: BitVec) -> BitVec:
        """Two's complement negation (modulo 2^width)."""
        inverted = BitVec(tuple(-bit for bit in a.bits))
        return self.add_const(inverted, 1)

    def sub(self, a: BitVec, b: BitVec) -> BitVec:
        a, b = self.match_widths(a, b)
        return self.add(a, self.negate(b))

    # -------------------------------------------------------------- logical

    def ite(self, cond: int, then_vec: BitVec, else_vec: BitVec) -> BitVec:
        then_vec, else_vec = self.match_widths(then_vec, else_vec)
        bits = tuple(
            self.circuit.ite(cond, t, e)
            for t, e in zip(then_vec.bits, else_vec.bits)
        )
        return BitVec(bits)

    # ------------------------------------------------------------- decoding

    def select(self, index: BitVec, table: Sequence[BitVec], default: BitVec) -> BitVec:
        """Multiplex ``table[index]`` with a fallback for out-of-range values."""
        result = default
        for i, entry in enumerate(table):
            result = self.ite(self.eq_const(index, i), entry, result)
        return result

    @staticmethod
    def decode(vec: BitVec, evaluate) -> int:
        """Decode a bit-vector to an int given a bit-evaluation function."""
        value = 0
        for i, bit in enumerate(vec.bits):
            if evaluate(bit):
                value |= 1 << i
        return value


def width_for(max_value: int) -> int:
    """Smallest width able to represent ``max_value`` (at least 1 bit)."""
    if max_value <= 0:
        return 1
    return max(1, max_value.bit_length())
