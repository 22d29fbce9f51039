"""Inlining of procedure calls.

The back-end "first transforms the test program T and implementation I by
inlining the operation calls and unrolling the loops" (Section 3.2).  This
pass replaces every :class:`repro.lsl.instructions.Call` by the callee body,
renaming the callee's registers and block tags so that different call sites
(and different invocations in the symbolic test) never clash.
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
    Free,
    Load,
    Observe,
    PrimOp,
    PrimitiveOp,
    Statement,
    Store,
)
from repro.lsl.program import Procedure, Program


class InlineError(RuntimeError):
    """Raised for recursive calls or calls to unknown procedures."""


def rename_statements(
    statements: list[Statement],
    reg_map: dict[str, str] | None = None,
    prefix: str = "",
) -> list[Statement]:
    """Return a deep copy of ``statements`` with registers and tags renamed.

    Registers are looked up in ``reg_map`` first; unmapped registers (and all
    block tags) get ``prefix`` prepended.  A fresh copy is always returned so
    callers can freely mutate or re-inline the result.
    """
    return _Renamer(reg_map or {}, prefix).walk(statements)


class _Renamer:
    """The recursive walk of :func:`rename_statements`.  A class, not
    nested functions: a closure that calls itself is a reference cycle,
    freed only by the garbage collector."""

    def __init__(self, reg_map: dict[str, str], prefix: str) -> None:
        self.reg_map = reg_map
        self.prefix = prefix

    def reg(self, name: str) -> str:
        return self.reg_map.get(name, self.prefix + name)

    def tag(self, name: str) -> str:
        return self.prefix + name

    def walk(self, stmts: list[Statement]) -> list[Statement]:
        reg, tag = self.reg, self.tag
        out: list[Statement] = []
        for stmt in stmts:
            if isinstance(stmt, ConstAssign):
                out.append(ConstAssign(reg(stmt.dst), stmt.value))
            elif isinstance(stmt, PrimOp):
                out.append(
                    PrimOp(reg(stmt.dst), stmt.op, tuple(reg(a) for a in stmt.args))
                )
            elif isinstance(stmt, Load):
                out.append(Load(reg(stmt.dst), reg(stmt.addr)))
            elif isinstance(stmt, Store):
                out.append(Store(reg(stmt.addr), reg(stmt.src)))
            elif isinstance(stmt, Fence):
                out.append(Fence(stmt.kind, candidate=stmt.candidate))
            elif isinstance(stmt, Atomic):
                out.append(Atomic(self.walk(stmt.body)))
            elif isinstance(stmt, Call):
                out.append(
                    Call(
                        stmt.proc,
                        tuple(reg(a) for a in stmt.args),
                        tuple(reg(r) for r in stmt.rets),
                    )
                )
            elif isinstance(stmt, Block):
                out.append(Block(tag(stmt.tag), self.walk(stmt.body)))
            elif isinstance(stmt, BreakIf):
                out.append(BreakIf(reg(stmt.cond), tag(stmt.tag)))
            elif isinstance(stmt, ContinueIf):
                out.append(ContinueIf(reg(stmt.cond), tag(stmt.tag)))
            elif isinstance(stmt, Assert):
                out.append(Assert(reg(stmt.cond)))
            elif isinstance(stmt, Assume):
                out.append(Assume(reg(stmt.cond)))
            elif isinstance(stmt, Alloc):
                out.append(
                    Alloc(reg(stmt.dst), stmt.num_cells, stmt.type_name,
                          stmt.field_names, stmt.init)
                )
            elif isinstance(stmt, Free):
                out.append(Free(reg(stmt.addr)))
            elif isinstance(stmt, Choose):
                out.append(Choose(reg(stmt.dst), stmt.choices, stmt.label))
            elif isinstance(stmt, Observe):
                out.append(Observe(stmt.label, tuple(reg(r) for r in stmt.regs)))
            else:  # pragma: no cover - defensive
                raise TypeError(f"unknown statement {stmt!r}")
        return out


@dataclass
class Inliner:
    """Inlines all calls reachable from a procedure or statement list."""

    program: Program
    max_depth: int = 32
    _counter: int = field(default=0, init=False)

    def inline_body(
        self, statements: list[Statement], prefix: str = "", depth: int = 0
    ) -> list[Statement]:
        """Inline all calls in ``statements`` (already renamed by caller)."""
        if depth > self.max_depth:
            raise InlineError("maximum inlining depth exceeded (recursion?)")
        out: list[Statement] = []
        for stmt in statements:
            if isinstance(stmt, Call):
                out.extend(self._expand_call(stmt, prefix, depth))
            elif isinstance(stmt, Block):
                out.append(Block(stmt.tag, self.inline_body(stmt.body, prefix, depth)))
            elif isinstance(stmt, Atomic):
                out.append(Atomic(self.inline_body(stmt.body, prefix, depth)))
            else:
                out.append(stmt)
        return out

    def inline_call(
        self,
        proc_name: str,
        arg_regs: tuple[str, ...] = (),
        ret_regs: tuple[str, ...] = (),
        prefix: str = "",
    ) -> list[Statement]:
        """Produce the fully inlined body of a single procedure call."""
        return self._expand_call(
            Call(proc_name, arg_regs, ret_regs), prefix, depth=0
        )

    # ------------------------------------------------------------- internals

    def _expand_call(
        self, call: Call, prefix: str, depth: int
    ) -> list[Statement]:
        try:
            callee: Procedure = self.program.procedure(call.proc)
        except KeyError as exc:
            raise InlineError(str(exc)) from exc
        if len(call.args) != len(callee.params):
            raise InlineError(
                f"call to {call.proc} passes {len(call.args)} arguments, "
                f"expected {len(callee.params)}"
            )
        self._counter += 1
        inner_prefix = f"{prefix}{call.proc}.{self._counter}::"
        out: list[Statement] = []
        # Bind arguments: move caller registers into renamed parameters.
        reg_map = {}
        for param, arg in zip(callee.params, call.args):
            renamed = inner_prefix + param
            reg_map[param] = renamed
            out.append(PrimOp(renamed, PrimitiveOp.MOVE, (arg,)))
        body = rename_statements(callee.body, reg_map=None, prefix=inner_prefix)
        # rename_statements prefixed the parameters too, which is exactly the
        # name we bound above, so the body sees the argument values.
        out.extend(self.inline_body(body, inner_prefix, depth + 1))
        # Copy return registers back to the caller.
        for caller_reg, callee_ret in zip(call.rets, callee.returns):
            out.append(
                PrimOp(caller_reg, PrimitiveOp.MOVE, (inner_prefix + callee_ret,))
            )
        return out
