"""Flow-insensitive range (value-set) analysis — Section 3.4 of the paper.

For every register and every memory location the analysis computes a
conservative approximation of the values it may hold in any execution.  The
encoder uses the result to

1. pick a bit-width sufficient for every value that can occur,
2. restrict the possible addresses of each load/store (alias pruning, which
   shrinks the memory-model formula), and
3. bound the "havoc" domain of uninitialized heap cells.

Termination follows the paper's scheme: every propagated value is tagged
with the number of unbounded-range operations (additions/subtractions) used
to derive it, and values whose tag exceeds the total number of such
operations in the unrolled test are discarded — a real (straight-line)
execution can never apply more of them than exist in the program.

The analysis can be disabled (``DisabledRanges``) to reproduce the Fig. 11c
experiment measuring its impact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.analysis.allocation import AllocationMap
from repro.lsl.instructions import (
    Alloc,
    Assert,
    Assume,
    Atomic,
    Block,
    BreakIf,
    Call,
    Choose,
    ConstAssign,
    ContinueIf,
    Fence,
    Free,
    Load,
    Observe,
    PrimOp,
    PrimitiveOp,
    Statement,
    Store,
    iter_statements,
)
from repro.lsl.layout import MemoryLayout
from repro.lsl.values import NULL, is_undef


class RangeAnalysisError(RuntimeError):
    """Raised when the program contains values the encoder cannot represent."""


#: Sentinel meaning "any value" (the set grew beyond the tracking limit).
TOP = None

_SET_LIMIT = 256

#: Baseline domain for uninitialized (havoc) heap cells; the analysis adds
#: every value that may be stored to the cell.
_HAVOC_BASELINE = frozenset({0, 1})

#: Internal representation of a value set: value -> minimal number of
#: unbounded-range operations needed to derive it (or TOP/None).
_TaggedSet = dict


@dataclass
class RangeInfo:
    """Result of the analysis, queried by the encoder."""

    layout: MemoryLayout
    reg_values: dict[str, set[int] | None] = field(default_factory=dict)
    loc_values: dict[int, set[int] | None] = field(default_factory=dict)
    enabled: bool = True
    default_width: int = 8

    # ------------------------------------------------------------ queries

    def possible_addresses(self, reg: str) -> list[int] | None:
        """Locations a pointer register may name (None = all of them)."""
        if not self.enabled:
            return None
        values = self.reg_values.get(reg)
        if values is TOP or reg not in self.reg_values:
            return None
        valid = [v for v in values if 0 <= v < self.layout.num_locations]
        return sorted(valid)

    def location_domain(self, index: int) -> set[int] | None:
        """Domain of values that may legitimately sit in a havoc'd cell."""
        if not self.enabled:
            return None
        values = self.loc_values.get(index)
        if values is TOP:
            return None
        return set(values or set()) | set(_HAVOC_BASELINE)

    def max_value(self) -> int:
        maximum = max(2, self.layout.num_locations - 1)
        if not self.enabled:
            return max(maximum, (1 << self.default_width) - 1)
        for values in itertools.chain(
            self.reg_values.values(), self.loc_values.values()
        ):
            if values is TOP:
                maximum = max(maximum, (1 << self.default_width) - 1)
            elif values:
                maximum = max(maximum, max(values))
        return maximum

    def width(self) -> int:
        return max(1, self.max_value().bit_length())


def DisabledRanges(layout: MemoryLayout, default_width: int = 8) -> RangeInfo:
    """A RangeInfo that reports no information (analysis switched off)."""
    return RangeInfo(layout=layout, enabled=False, default_width=default_width)


class RangeAnalysis:
    """Computes a :class:`RangeInfo` for a set of thread bodies."""

    def __init__(
        self,
        layout: MemoryLayout,
        allocation: AllocationMap,
        max_passes: int = 200,
    ) -> None:
        self.layout = layout
        self.allocation = allocation
        self.max_passes = max_passes
        self._regs: dict[str, _TaggedSet | None] = {}
        self._locs: dict[int, _TaggedSet | None] = {}
        self._arith_budget = 0
        self._changed = False

    # --------------------------------------------------------------- public

    def analyze(self, thread_bodies: list[list[Statement]]) -> RangeInfo:
        self._arith_budget = self._count_arith(thread_bodies)
        self._seed_locations()
        for _ in range(self.max_passes):
            self._changed = False
            for body in thread_bodies:
                self._visit_body(body)
            if not self._changed:
                break
        return self._finish()

    # ------------------------------------------------------------ internals

    def _count_arith(self, thread_bodies: list[list[Statement]]) -> int:
        count = 0
        for body in thread_bodies:
            for stmt in iter_statements(body):
                if isinstance(stmt, PrimOp) and stmt.op in (
                    PrimitiveOp.ADD,
                    PrimitiveOp.SUB,
                ):
                    count += 1
        return count

    def _seed_locations(self) -> None:
        for index in self.layout.valid_indices():
            info = self.layout.info(index)
            if is_undef(info.initial):
                # Heap cell: havoc baseline, extended by stores during the
                # fixpoint iteration.
                self._locs[index] = {v: 0 for v in _HAVOC_BASELINE}
            else:
                self._locs[index] = {int(info.initial): 0}

    def _finish(self) -> RangeInfo:
        info = RangeInfo(layout=self.layout)
        info.reg_values = {
            reg: (TOP if values is TOP else set(values))
            for reg, values in self._regs.items()
        }
        info.loc_values = {
            index: (TOP if values is TOP else set(values))
            for index, values in self._locs.items()
        }
        return info

    def _merge(self, table, key, values: _TaggedSet | None) -> None:
        # NOTE: TOP is None, so "key absent" and "key mapped to TOP" must be
        # distinguished with a membership test, not .get().
        if key in table:
            current = table[key]
            if current is TOP:
                return
        else:
            current = {}
            table[key] = current
            self._changed = True
        if values is TOP:
            table[key] = TOP
            self._changed = True
            return
        changed = False
        for value, hops in values.items():
            existing = current.get(value)
            if existing is None or hops < existing:
                current[value] = hops
                changed = True
        if len(current) > _SET_LIMIT:
            table[key] = TOP
            self._changed = True
            return
        if changed:
            self._changed = True

    def _add_reg(self, reg: str, values: _TaggedSet | None) -> None:
        self._merge(self._regs, reg, values)

    def _add_loc(self, index: int, values: _TaggedSet | None) -> None:
        self._merge(self._locs, index, values)

    def _reg(self, reg: str) -> _TaggedSet | None:
        if reg not in self._regs:
            return {}
        value = self._regs[reg]
        return TOP if value is TOP else value

    def _visit_body(self, body: list[Statement]) -> None:
        for stmt in body:
            self._visit(stmt)

    def _visit(self, stmt: Statement) -> None:
        if isinstance(stmt, (Block, Atomic)):
            self._visit_body(stmt.body)
        elif isinstance(stmt, ConstAssign):
            if is_undef(stmt.value):
                return
            value = int(stmt.value)
            if value < 0:
                raise RangeAnalysisError(
                    "negative constants are not supported by the encoder"
                )
            self._add_reg(stmt.dst, {value: 0})
        elif isinstance(stmt, PrimOp):
            self._add_reg(stmt.dst, self._apply_prim(stmt))
        elif isinstance(stmt, Choose):
            self._add_reg(stmt.dst, {v: 0 for v in stmt.choices})
        elif isinstance(stmt, Alloc):
            self._add_reg(stmt.dst, {self.allocation.base_for(stmt): 0})
        elif isinstance(stmt, Load):
            self._add_reg(stmt.dst, self._load_domain(stmt.addr))
        elif isinstance(stmt, Store):
            self._store(stmt)
        elif isinstance(stmt, Call):
            raise RangeAnalysisError(
                "range analysis requires fully inlined code (found a Call)"
            )
        elif isinstance(stmt, (Fence, Free, Observe, Assert, Assume, BreakIf,
                               ContinueIf)):
            return
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown statement {stmt!r}")

    def _load_domain(self, addr_reg: str) -> _TaggedSet | None:
        addresses = self._reg(addr_reg)
        if addresses is TOP:
            candidates = list(self.layout.valid_indices())
        else:
            candidates = [
                a for a in addresses
                if a != NULL and 0 < a < self.layout.num_locations
            ]
        result: _TaggedSet = {}
        for address in candidates:
            values = self._locs.get(address)
            if values is TOP:
                return TOP
            for value, hops in (values or {}).items():
                existing = result.get(value)
                if existing is None or hops < existing:
                    result[value] = hops
            if len(result) > _SET_LIMIT:
                return TOP
        return result

    def _store(self, stmt: Store) -> None:
        addresses = self._reg(stmt.addr)
        values = self._reg(stmt.src)
        if addresses is TOP:
            targets = list(self.layout.valid_indices())
        else:
            targets = [
                a for a in addresses
                if a != NULL and 0 < a < self.layout.num_locations
            ]
        for address in targets:
            self._add_loc(address, values)

    def _apply_prim(self, stmt: PrimOp) -> _TaggedSet | None:
        op = stmt.op
        operands = [self._reg(r) for r in stmt.args]
        if op is PrimitiveOp.MOVE:
            return operands[0]
        if op in (
            PrimitiveOp.EQ,
            PrimitiveOp.NE,
            PrimitiveOp.LT,
            PrimitiveOp.LE,
            PrimitiveOp.GT,
            PrimitiveOp.GE,
            PrimitiveOp.AND,
            PrimitiveOp.OR,
            PrimitiveOp.NOT,
        ):
            return {0: 0, 1: 0}
        if op in (PrimitiveOp.ADD, PrimitiveOp.SUB):
            left, right = operands
            if left is TOP or right is TOP:
                return TOP
            result: _TaggedSet = {}
            for a, hops_a in left.items():
                for b, hops_b in right.items():
                    hops = hops_a + hops_b + 1
                    if hops > self._arith_budget:
                        continue
                    value = a + b if op is PrimitiveOp.ADD else a - b
                    if value < 0:
                        # Negative intermediate results never feed addresses
                        # in the supported programs; clamp to keep the
                        # unsigned encoding sound.
                        value = 0
                    existing = result.get(value)
                    if existing is None or hops < existing:
                        result[value] = hops
                    if len(result) > _SET_LIMIT:
                        return TOP
            return result
        raise TypeError(f"unknown primitive {op}")  # pragma: no cover
