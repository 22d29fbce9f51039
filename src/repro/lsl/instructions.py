"""Abstract syntax of the Load/Store Language (LSL).

This mirrors Fig. 4 of the paper: statements are register constants,
primitive operations, loads, stores, fences, atomic blocks, procedure calls,
tagged blocks with conditional break/continue, assertions and assumptions.
We add a small number of statements the paper treats as externals or
conventions: heap allocation (``new_node``), nondeterministic choice (test
arguments), and observation recording (argument/return values of data type
operations).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.lsl.values import Value


class FenceKind(enum.Enum):
    """Memory ordering fences (the four SPARC RMO-style partial fences)."""

    LOAD_LOAD = "load-load"
    LOAD_STORE = "load-store"
    STORE_LOAD = "store-load"
    STORE_STORE = "store-store"
    FULL = "full"

    @classmethod
    def from_string(cls, text: str) -> "FenceKind":
        for kind in cls:
            if kind.value == text:
                return kind
        raise ValueError(f"unknown fence kind: {text!r}")

    @property
    def orders_before(self) -> tuple[str, ...]:
        """Access kinds ('load'/'store') constrained before the fence."""
        if self is FenceKind.FULL:
            return ("load", "store")
        return (self.value.split("-")[0],)

    @property
    def orders_after(self) -> tuple[str, ...]:
        """Access kinds ('load'/'store') constrained after the fence."""
        if self is FenceKind.FULL:
            return ("load", "store")
        return (self.value.split("-")[1],)


class PrimitiveOp(enum.Enum):
    """Primitive register-to-register operations."""

    ADD = "add"
    SUB = "sub"
    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    AND = "and"
    OR = "or"
    NOT = "not"
    MOVE = "move"


class Statement:
    """Base class of all LSL statements."""

    __slots__ = ()


@dataclass
class ConstAssign(Statement):
    """``r = v`` — assign a constant value to a register."""

    dst: str
    value: Value

    def __str__(self) -> str:
        return f"{self.dst} = {self.value}"


@dataclass
class PrimOp(Statement):
    """``r = f(r1, ..., rk)`` — apply a primitive operation."""

    dst: str
    op: PrimitiveOp
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.dst} = {self.op.value}({', '.join(self.args)})"


@dataclass
class Load(Statement):
    """``r = *addr`` — load from the location named by register ``addr``."""

    dst: str
    addr: str

    def __str__(self) -> str:
        return f"{self.dst} = *{self.addr}"


@dataclass
class Store(Statement):
    """``*addr = src`` — store register ``src`` to the location in ``addr``."""

    addr: str
    src: str

    def __str__(self) -> str:
        return f"*{self.addr} = {self.src}"


@dataclass
class Fence(Statement):
    """A memory ordering fence.

    ``candidate`` marks a *candidate* fence for synthesis: the fence only
    takes effect when its selector assumption (one circuit variable per
    distinct label, see :meth:`repro.encoding.formula.EncodingContext
    .fence_selector`) is assumed true.  ``None`` (the default) is an
    ordinary unconditional fence.  All inlined/unrolled copies of one
    source-level candidate share the label, so one selector governs every
    dynamic instance of that program point.
    """

    kind: FenceKind
    candidate: str | None = None

    def __str__(self) -> str:
        if self.candidate is not None:
            return f'fence?("{self.kind.value}", {self.candidate!r})'
        return f'fence("{self.kind.value}")'


@dataclass
class Atomic(Statement):
    """``atomic { ... }`` — instructions execute atomically and in order."""

    body: list[Statement]

    def __str__(self) -> str:
        return "atomic { ... }"


@dataclass
class Call(Statement):
    """``p(args)(rets)`` — call procedure ``p``."""

    proc: str
    args: tuple[str, ...] = ()
    rets: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"{self.proc}({', '.join(self.args)})({', '.join(self.rets)})"


@dataclass
class Block(Statement):
    """``t : { ... }`` — a tagged block; target of break/continue."""

    tag: str
    body: list[Statement]

    def __str__(self) -> str:
        return f"{self.tag}: {{ ... }}"


@dataclass
class BreakIf(Statement):
    """``if (r) break t`` — leave block ``t`` if the register is non-zero."""

    cond: str
    tag: str

    def __str__(self) -> str:
        return f"if ({self.cond}) break {self.tag}"


@dataclass
class ContinueIf(Statement):
    """``if (r) continue t`` — repeat block ``t`` if the register is non-zero."""

    cond: str
    tag: str

    def __str__(self) -> str:
        return f"if ({self.cond}) continue {self.tag}"


@dataclass
class Assert(Statement):
    """``assert(r)`` — fails the execution if the register is zero."""

    cond: str

    def __str__(self) -> str:
        return f"assert({self.cond})"


@dataclass
class Assume(Statement):
    """``assume(r)`` — restricts attention to executions where r is non-zero."""

    cond: str

    def __str__(self) -> str:
        return f"assume({self.cond})"


@dataclass
class Alloc(Statement):
    """``r = new(<cells>)`` — allocate a heap object and return its address.

    ``field_names`` documents the flattened layout for traces; ``init``
    selects how the fresh cells start out: ``"havoc"`` (arbitrary contents,
    the default, matching real hardware where malloc'd memory holds garbage),
    ``"zero"``, or ``"undef"``.
    """

    dst: str
    num_cells: int
    type_name: str = "object"
    field_names: tuple[str, ...] = ()
    init: str = "havoc"

    def __str__(self) -> str:
        return f"{self.dst} = new {self.type_name}[{self.num_cells}]"


@dataclass
class Free(Statement):
    """``free(r)`` — release a heap object (a no-op for the bounded checker)."""

    addr: str

    def __str__(self) -> str:
        return f"free({self.addr})"


@dataclass
class Choose(Statement):
    """``r = choose {v1, ..., vk}`` — nondeterministic choice of a value.

    Used for unspecified test arguments (the paper draws them from ``{0,1}``).
    """

    dst: str
    choices: tuple[int, ...] = (0, 1)
    label: str | None = None

    def __str__(self) -> str:
        return f"{self.dst} = choose{set(self.choices)}"


@dataclass
class Observe(Statement):
    """Record register values as part of the observation vector."""

    label: str
    regs: tuple[str, ...]

    def __str__(self) -> str:
        return f"observe {self.label}({', '.join(self.regs)})"


#: Statements that directly access shared memory.
MEMORY_ACCESS_TYPES = (Load, Store)


def iter_statements(body: Iterable[Statement]) -> Iterator[Statement]:
    """Yield every statement in a body, recursing into nested blocks."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, Block):
            yield from iter_statements(stmt.body)
        elif isinstance(stmt, Atomic):
            yield from iter_statements(stmt.body)


def count_statements(body: Iterable[Statement]) -> int:
    return sum(1 for _ in iter_statements(body))


def count_memory_accesses(body: Iterable[Statement]) -> tuple[int, int]:
    """Return (#loads, #stores) in a body (recursively)."""
    loads = stores = 0
    for stmt in iter_statements(body):
        if isinstance(stmt, Load):
            loads += 1
        elif isinstance(stmt, Store):
            stores += 1
    return loads, stores
