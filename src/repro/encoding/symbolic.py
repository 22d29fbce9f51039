"""Thread-local symbolic execution (the ``Delta_k`` formulas of Section 3.2.1).

Each thread's unrolled, inlined code is executed symbolically: registers map
to bit-vector terms, control flow becomes guard expressions (every statement
carries the condition under which it executes), and every load/store becomes
a :class:`MemoryAccess` record whose value constraints are supplied later by
the memory-model encoding (``Theta``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    FenceKind,
    Free,
    Load,
    Observe,
    PrimOp,
    PrimitiveOp,
    Statement,
    Store,
)
from repro.lsl.values import is_undef
from repro.sat.bitvec import BitVec


class EncodingError(RuntimeError):
    """The program cannot be encoded (unsupported construct or value)."""


@dataclass
class MemoryAccess:
    """One dynamic load or store instance."""

    index: int                  # position in the test's access list
    kind: str                   # "load" or "store"
    thread: int
    invocation: int             # global invocation index (seriality groups)
    seq: int                    # program-order position within the thread
    guard: int                  # literal: does this access execute?
    addr: BitVec
    value: BitVec
    addr_candidates: list[int] | None
    atomic_group: int | None
    label: str

    @property
    def is_load(self) -> bool:
        return self.kind == "load"

    @property
    def is_store(self) -> bool:
        return self.kind == "store"


@dataclass
class FenceEvent:
    """A fence instance, positioned between accesses of its thread."""

    thread: int
    seq: int
    kind: FenceKind
    guard: int


@dataclass
class ThreadEncoding:
    """Everything the memory-model encoder needs to know about one thread."""

    thread: int
    accesses: list[MemoryAccess] = field(default_factory=list)
    fences: list[FenceEvent] = field(default_factory=list)
    assertions: list[tuple[int, str]] = field(default_factory=list)


class ThreadSymbolicExecutor:
    """Symbolically executes the invocations of a single thread."""

    def __init__(self, context, thread: int) -> None:
        self.ctx = context
        self.thread = thread
        self.encoding = ThreadEncoding(thread=thread)
        self.registers: dict[str, BitVec] = {}
        self.seq = 0
        self._current_invocation = -1
        # Stack of open blocks: (tag, exited-expression handle).
        self._blocks: list[list] = []
        self._atomic_stack: list[int] = []

    # --------------------------------------------------------------- public

    def run_invocation(self, invocation_index: int, statements: list[Statement]) -> None:
        self._current_invocation = invocation_index
        self._exec_body(statements)

    def register_value(self, reg: str) -> BitVec:
        """Final value of a register (fresh/unconstrained if never assigned)."""
        return self._read(reg)

    # ------------------------------------------------------------ execution

    def _guard(self) -> int:
        circuit = self.ctx.circuit
        if not self._blocks:
            return circuit.TRUE
        return circuit.and_many(-frame[1] for frame in self._blocks)

    def _exec_body(self, statements: list[Statement]) -> None:
        for stmt in statements:
            self._exec(stmt)

    def _exec(self, stmt: Statement) -> None:
        circuit = self.ctx.circuit
        bvb = self.ctx.bvb
        if isinstance(stmt, Block):
            self._blocks.append([stmt.tag, circuit.FALSE])
            self._exec_body(stmt.body)
            self._blocks.pop()
        elif isinstance(stmt, Atomic):
            group = self.ctx.new_atomic_group()
            self._atomic_stack.append(group)
            self._exec_body(stmt.body)
            self._atomic_stack.pop()
        elif isinstance(stmt, BreakIf):
            condition = self._truth(stmt.cond)
            taken = circuit.and_(self._guard(), condition)
            frame = self._find_block(stmt.tag)
            frame[1] = circuit.or_(frame[1], taken)
        elif isinstance(stmt, ContinueIf):
            raise EncodingError(
                f"continue to {stmt.tag!r} survived unrolling; "
                "increase the loop bound"
            )
        elif isinstance(stmt, ConstAssign):
            if is_undef(stmt.value):
                self._assign(stmt.dst, self.ctx.fresh_value(f"undef_{stmt.dst}"))
            else:
                self._assign(stmt.dst, self.ctx.const_value(int(stmt.value)))
        elif isinstance(stmt, PrimOp):
            self._assign(stmt.dst, self._prim(stmt))
        elif isinstance(stmt, Choose):
            value = self.ctx.fresh_value(f"choose_{stmt.dst}")
            domain = circuit.or_many(
                bvb.eq_const(value, choice) for choice in stmt.choices
            )
            self.ctx.assert_true(domain)
            self._assign(stmt.dst, value)
        elif isinstance(stmt, Alloc):
            base = self.ctx.allocation.base_for(stmt)
            self.ctx.register_allocation(stmt, base)
            self._assign(stmt.dst, self.ctx.const_value(base))
        elif isinstance(stmt, Load):
            self._load(stmt)
        elif isinstance(stmt, Store):
            self._store(stmt)
        elif isinstance(stmt, Fence):
            guard = self._guard()
            if stmt.candidate is not None:
                # A candidate fence orders accesses only when its selector
                # is assumed; with the selector free the solver can switch
                # the fence off, so an unassumed candidate never constrains.
                guard = circuit.and_(
                    guard, self.ctx.fence_selector(stmt.candidate)
                )
            self.encoding.fences.append(
                FenceEvent(self.thread, self._next_seq(), stmt.kind, guard)
            )
        elif isinstance(stmt, Assume):
            condition = self._truth(stmt.cond)
            self.ctx.assert_true(circuit.implies(self._guard(), condition))
        elif isinstance(stmt, Assert):
            condition = self._truth(stmt.cond)
            holds = circuit.implies(self._guard(), condition)
            self.encoding.assertions.append((holds, f"assert({stmt.cond})"))
        elif isinstance(stmt, (Free, Observe)):
            pass
        elif isinstance(stmt, Call):
            raise EncodingError("calls must be inlined before encoding")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown statement {stmt!r}")

    # ----------------------------------------------------------- statements

    def _load(self, stmt: Load) -> None:
        address = self._read(stmt.addr)
        value = self.ctx.fresh_value(f"load_{self.thread}_{self.seq}")
        access = MemoryAccess(
            index=self.ctx.new_access_index(),
            kind="load",
            thread=self.thread,
            invocation=self._current_invocation,
            seq=self._next_seq(),
            guard=self._guard(),
            addr=address,
            value=value,
            addr_candidates=self.ctx.ranges.possible_addresses(stmt.addr),
            atomic_group=self._atomic_stack[-1] if self._atomic_stack else None,
            label=f"t{self.thread}: {stmt.dst} = *{stmt.addr}",
        )
        self.encoding.accesses.append(access)
        self._assign(stmt.dst, value)

    def _store(self, stmt: Store) -> None:
        address = self._read(stmt.addr)
        value = self._read(stmt.src)
        access = MemoryAccess(
            index=self.ctx.new_access_index(),
            kind="store",
            thread=self.thread,
            invocation=self._current_invocation,
            seq=self._next_seq(),
            guard=self._guard(),
            addr=address,
            value=value,
            addr_candidates=self.ctx.ranges.possible_addresses(stmt.addr),
            atomic_group=self._atomic_stack[-1] if self._atomic_stack else None,
            label=f"t{self.thread}: *{stmt.addr} = {stmt.src}",
        )
        self.encoding.accesses.append(access)

    def _prim(self, stmt: PrimOp) -> BitVec:
        bvb = self.ctx.bvb
        circuit = self.ctx.circuit
        operands = [self._read(arg) for arg in stmt.args]
        op = stmt.op
        if op is PrimitiveOp.MOVE:
            return operands[0]
        if op is PrimitiveOp.ADD:
            return bvb.add(operands[0], operands[1])
        if op is PrimitiveOp.SUB:
            return bvb.sub(operands[0], operands[1])
        if op is PrimitiveOp.EQ:
            return self._bool_vec(bvb.eq(operands[0], operands[1]))
        if op is PrimitiveOp.NE:
            return self._bool_vec(bvb.ne(operands[0], operands[1]))
        if op is PrimitiveOp.LT:
            return self._bool_vec(bvb.ult(operands[0], operands[1]))
        if op is PrimitiveOp.LE:
            return self._bool_vec(bvb.ule(operands[0], operands[1]))
        if op is PrimitiveOp.GT:
            return self._bool_vec(bvb.ugt(operands[0], operands[1]))
        if op is PrimitiveOp.GE:
            return self._bool_vec(bvb.uge(operands[0], operands[1]))
        if op is PrimitiveOp.AND:
            return self._bool_vec(
                circuit.and_(self._nonzero(operands[0]), self._nonzero(operands[1]))
            )
        if op is PrimitiveOp.OR:
            return self._bool_vec(
                circuit.or_(self._nonzero(operands[0]), self._nonzero(operands[1]))
            )
        if op is PrimitiveOp.NOT:
            return self._bool_vec(-self._nonzero(operands[0]))
        raise TypeError(f"unknown primitive {op}")  # pragma: no cover

    # ------------------------------------------------------------ utilities

    def _next_seq(self) -> int:
        self.seq += 1
        return self.seq

    def _find_block(self, tag: str) -> list:
        for frame in reversed(self._blocks):
            if frame[0] == tag:
                return frame
        raise EncodingError(f"break targets unknown block {tag!r}")

    def _assign(self, reg: str, value: BitVec) -> None:
        guard = self._guard()
        if guard == self.ctx.circuit.TRUE:
            self.registers[reg] = value
        else:
            old = self._read(reg)
            self.registers[reg] = self.ctx.bvb.ite(guard, value, old)

    def _read(self, reg: str) -> BitVec:
        value = self.registers.get(reg)
        if value is None:
            value = self.ctx.fresh_value(f"uninit_{reg}")
            self.registers[reg] = value
        return value

    def _nonzero(self, value: BitVec) -> int:
        return -self.ctx.bvb.is_zero(value)

    def _truth(self, reg: str) -> int:
        return self._nonzero(self._read(reg))

    def _bool_vec(self, handle: int) -> BitVec:
        return self.ctx.bvb.from_bool(handle, self.ctx.width)
