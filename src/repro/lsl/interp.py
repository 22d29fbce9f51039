"""A serial interpreter for LSL.

The interpreter executes procedures one at a time against a concrete memory.
It is the reference semantics that the C front-end and the inline/unroll
passes are tested against (``tests/lang/test_lowering.py``,
``tests/analysis/test_inline_unroll.py``): running lowered or transformed
code must agree with the expected results and with the original code.
Reference specification mining does not use it; it runs the Python classes
of :mod:`repro.datatypes.reference`.

Concurrency and memory-model relaxations are *not* modelled here — that is
the job of the SAT encoding (:mod:`repro.encoding`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

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
)
from repro.lsl.layout import MemoryLayout
from repro.lsl.program import Program
from repro.lsl.values import (
    NULL,
    UNDEF,
    UndefinedValueError,
    Value,
    is_undef,
    require_defined,
)


class AssertionViolation(RuntimeError):
    """An ``assert`` statement failed during interpretation."""


class AssumptionFailed(Exception):
    """An ``assume`` statement failed: the execution should be discarded."""


class NullDereference(RuntimeError):
    """A load or store used the null pointer (or an invalid location)."""


class StepLimitExceeded(RuntimeError):
    """The interpreter exceeded its step budget (possible unbounded loop)."""


#: Chooser callback: given the Choose statement and its choices, pick one.
Chooser = Callable[[Choose], int]


def first_choice(choose: Choose) -> int:
    """Default chooser: always pick the first alternative."""
    return choose.choices[0]


@dataclass
class MachineState:
    """Concrete shared state: memory image plus the allocation layout."""

    layout: MemoryLayout
    memory: dict[int, Value] = field(default_factory=dict)

    @classmethod
    def initial(cls, layout: MemoryLayout) -> "MachineState":
        return cls(layout=layout, memory=layout.initial_memory())

    def copy(self) -> "MachineState":
        return MachineState(layout=self.layout.copy(), memory=dict(self.memory))

    def read(self, address: Value) -> Value:
        index = require_defined(address, "address")
        if index == NULL or index < 0 or index >= self.layout.num_locations:
            raise NullDereference(f"load from invalid location {index}")
        return self.memory.get(index, self.layout.initial_value(index))

    def write(self, address: Value, value: Value) -> None:
        index = require_defined(address, "address")
        if index == NULL or index < 0 or index >= self.layout.num_locations:
            raise NullDereference(f"store to invalid location {index}")
        self.memory[index] = value


@dataclass
class InterpResult:
    """Result of interpreting one procedure call."""

    returns: tuple[Value, ...]
    observations: list[tuple[str, tuple[Value, ...]]] = field(default_factory=list)
    steps: int = 0


# Control-flow signals used internally by the interpreter.
_NORMAL = ("normal", None)


class Interpreter:
    """Executes LSL procedures serially against a :class:`MachineState`."""

    def __init__(
        self,
        program: Program,
        state: MachineState,
        chooser: Chooser = first_choice,
        max_steps: int = 100_000,
    ) -> None:
        self.program = program
        self.state = state
        self.chooser = chooser
        self.max_steps = max_steps
        self._steps = 0
        self.observations: list[tuple[str, tuple[Value, ...]]] = []

    # --------------------------------------------------------------- public

    def call(self, proc_name: str, args: Sequence[Value] = ()) -> InterpResult:
        """Call a procedure; returns its return values and observations."""
        start_observations = len(self.observations)
        returns = self._call(proc_name, tuple(args))
        return InterpResult(
            returns=returns,
            observations=self.observations[start_observations:],
            steps=self._steps,
        )

    def run_statements(self, body: Sequence[Statement]) -> dict[str, Value]:
        """Execute a raw statement list in a fresh register frame."""
        registers: dict[str, Value] = {}
        self._exec_body(list(body), registers)
        return registers

    # ------------------------------------------------------------ execution

    def _call(self, proc_name: str, args: tuple[Value, ...]) -> tuple[Value, ...]:
        proc = self.program.procedure(proc_name)
        if len(args) != len(proc.params):
            raise TypeError(
                f"{proc_name} expects {len(proc.params)} arguments, got {len(args)}"
            )
        registers: dict[str, Value] = dict(zip(proc.params, args))
        self._exec_body(proc.body, registers)
        return tuple(registers.get(r, UNDEF) for r in proc.returns)

    def _tick(self) -> None:
        self._steps += 1
        if self._steps > self.max_steps:
            raise StepLimitExceeded(
                f"exceeded {self.max_steps} steps (unbounded loop?)"
            )

    def _exec_body(
        self, body: Sequence[Statement], registers: dict[str, Value]
    ) -> tuple[str, str | None]:
        """Execute statements; returns a control signal ('normal'/'break'/
        'continue', tag)."""
        for stmt in body:
            signal = self._exec_stmt(stmt, registers)
            if signal[0] != "normal":
                return signal
        return _NORMAL

    def _exec_block(
        self, block: Block, registers: dict[str, Value]
    ) -> tuple[str, str | None]:
        while True:
            self._tick()
            signal = self._exec_body(block.body, registers)
            kind, tag = signal
            if kind == "continue" and tag == block.tag:
                continue  # repeat this block
            if kind == "break" and tag == block.tag:
                return _NORMAL
            return signal  # normal, or targets an enclosing block

    def _exec_stmt(
        self, stmt: Statement, registers: dict[str, Value]
    ) -> tuple[str, str | None]:
        self._tick()
        if isinstance(stmt, ConstAssign):
            registers[stmt.dst] = stmt.value
        elif isinstance(stmt, PrimOp):
            registers[stmt.dst] = self._eval_prim(stmt, registers)
        elif isinstance(stmt, Load):
            registers[stmt.dst] = self.state.read(self._reg(registers, stmt.addr))
        elif isinstance(stmt, Store):
            self.state.write(
                self._reg(registers, stmt.addr), self._reg(registers, stmt.src)
            )
        elif isinstance(stmt, Fence):
            pass  # no effect on serial executions
        elif isinstance(stmt, Atomic):
            return self._exec_body(stmt.body, registers)
        elif isinstance(stmt, Block):
            return self._exec_block(stmt, registers)
        elif isinstance(stmt, BreakIf):
            if self._truth(registers, stmt.cond):
                return ("break", stmt.tag)
        elif isinstance(stmt, ContinueIf):
            if self._truth(registers, stmt.cond):
                return ("continue", stmt.tag)
        elif isinstance(stmt, Assert):
            if not self._truth(registers, stmt.cond):
                raise AssertionViolation(f"assertion failed: {stmt.cond}")
        elif isinstance(stmt, Assume):
            if not self._truth(registers, stmt.cond):
                raise AssumptionFailed(stmt.cond)
        elif isinstance(stmt, Call):
            args = tuple(self._reg(registers, r) for r in stmt.args)
            results = self._call(stmt.proc, args)
            for reg, value in zip(stmt.rets, results):
                registers[reg] = value
        elif isinstance(stmt, Alloc):
            registers[stmt.dst] = self._alloc(stmt)
        elif isinstance(stmt, Free):
            pass  # bounded executions never reuse memory
        elif isinstance(stmt, Choose):
            choice = self.chooser(stmt)
            if choice not in stmt.choices:
                raise ValueError(
                    f"chooser returned {choice}, not in {stmt.choices}"
                )
            registers[stmt.dst] = choice
        elif isinstance(stmt, Observe):
            values = tuple(registers.get(r, UNDEF) for r in stmt.regs)
            self.observations.append((stmt.label, values))
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown statement type: {stmt!r}")
        return _NORMAL

    # ------------------------------------------------------------ utilities

    def _alloc(self, stmt: Alloc) -> int:
        if stmt.init == "zero":
            initial: Value = 0
        else:
            # Both "havoc" and "undef" map to undefined cells in the serial
            # interpreter; reading them before writing is an error, which is
            # exactly the behaviour that exposes missing-initialization bugs.
            initial = UNDEF
        return self.state.layout.add_heap_object(
            hint=f"{stmt.type_name}#{self.state.layout.num_locations}",
            field_names=stmt.field_names or tuple(
                f"f{i}" for i in range(stmt.num_cells)
            ),
            initial=initial,
        )

    def _reg(self, registers: dict[str, Value], name: str) -> Value:
        return registers.get(name, UNDEF)

    def _truth(self, registers: dict[str, Value], name: str) -> bool:
        value = self._reg(registers, name)
        if is_undef(value):
            raise UndefinedValueError(
                f"undefined value in condition register {name!r}"
            )
        return value != 0

    def _eval_prim(self, stmt: PrimOp, registers: dict[str, Value]) -> Value:
        op = stmt.op
        values = [self._reg(registers, r) for r in stmt.args]
        if op is PrimitiveOp.MOVE:
            return values[0]
        concrete = [require_defined(v, f"operand of {op.value}") for v in values]
        if op is PrimitiveOp.ADD:
            return concrete[0] + concrete[1]
        if op is PrimitiveOp.SUB:
            return concrete[0] - concrete[1]
        if op is PrimitiveOp.EQ:
            return int(concrete[0] == concrete[1])
        if op is PrimitiveOp.NE:
            return int(concrete[0] != concrete[1])
        if op is PrimitiveOp.LT:
            return int(concrete[0] < concrete[1])
        if op is PrimitiveOp.LE:
            return int(concrete[0] <= concrete[1])
        if op is PrimitiveOp.GT:
            return int(concrete[0] > concrete[1])
        if op is PrimitiveOp.GE:
            return int(concrete[0] >= concrete[1])
        if op is PrimitiveOp.AND:
            return int(bool(concrete[0]) and bool(concrete[1]))
        if op is PrimitiveOp.OR:
            return int(bool(concrete[0]) or bool(concrete[1]))
        if op is PrimitiveOp.NOT:
            return int(not concrete[0])
        raise TypeError(f"unknown primitive op: {op}")  # pragma: no cover
