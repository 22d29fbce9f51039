"""LSL programs: procedures, struct layouts, globals, and symbolic tests.

A :class:`Program` is the unit produced by the C front-end: a set of
procedures (the data type operations), the struct layouts they use, and the
global variables they share.  A :class:`SymbolicTest` describes the client
test program of Fig. 8: an optional initialization sequence plus, for every
thread, a finite sequence of operation invocations whose arguments may be
left unspecified (drawn nondeterministically from ``{0, 1}``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lsl.instructions import Statement
from repro.lsl.values import Value


@dataclass
class StructLayout:
    """Flattened layout of a C struct: field name -> cell offset."""

    name: str
    fields: tuple[str, ...]

    def offset_of(self, field_name: str) -> int:
        try:
            return self.fields.index(field_name)
        except ValueError as exc:
            raise KeyError(
                f"struct {self.name} has no field {field_name!r}"
            ) from exc

    @property
    def num_cells(self) -> int:
        return max(1, len(self.fields))


@dataclass
class GlobalDecl:
    """A global object shared by all threads."""

    name: str
    struct: StructLayout | None = None
    initial: Value | tuple[Value, ...] = 0

    @property
    def field_names(self) -> tuple[str, ...]:
        return self.struct.fields if self.struct is not None else ()


@dataclass
class Procedure:
    """An LSL procedure (one data type operation, or a helper)."""

    name: str
    params: tuple[str, ...]
    returns: tuple[str, ...]
    body: list[Statement] = field(default_factory=list)

    def __str__(self) -> str:
        return (
            f"proc {self.name}({', '.join(self.params)})"
            f" -> ({', '.join(self.returns)})"
        )


@dataclass
class Program:
    """A compiled implementation: procedures plus shared state declarations."""

    name: str
    procedures: dict[str, Procedure] = field(default_factory=dict)
    structs: dict[str, StructLayout] = field(default_factory=dict)
    globals: list[GlobalDecl] = field(default_factory=list)

    def add_procedure(self, proc: Procedure) -> None:
        if proc.name in self.procedures:
            raise ValueError(f"duplicate procedure {proc.name!r}")
        self.procedures[proc.name] = proc

    def add_struct(self, layout: StructLayout) -> None:
        self.structs[layout.name] = layout

    def add_global(self, decl: GlobalDecl) -> None:
        self.globals.append(decl)

    def procedure(self, name: str) -> Procedure:
        try:
            return self.procedures[name]
        except KeyError as exc:
            raise KeyError(
                f"program {self.name!r} has no procedure {name!r}"
            ) from exc


@dataclass
class Invocation:
    """One operation call in a symbolic test.

    ``args`` entries are either concrete ints or ``None`` for "unspecified"
    (chosen nondeterministically from :attr:`choice_domain`).
    """

    operation: str
    args: tuple[int | None, ...] = ()
    choice_domain: tuple[int, ...] = (0, 1)
    label: str | None = None

    def display(self) -> str:
        rendered = [
            "?" if a is None else str(a) for a in self.args
        ]
        name = self.label or self.operation
        return f"{name}({', '.join(rendered)})"


@dataclass
class SymbolicTest:
    """A bounded multi-threaded test program (Fig. 8)."""

    name: str
    threads: list[list[Invocation]]
    init: list[Invocation] = field(default_factory=list)
    description: str = ""

    @property
    def num_threads(self) -> int:
        return len(self.threads)

    def all_invocations(self) -> list[tuple[int, int, Invocation]]:
        """Return (thread index, position, invocation) triples.

        Thread index ``-1`` denotes the initialization sequence.
        """
        out = [(-1, i, inv) for i, inv in enumerate(self.init)]
        for t, thread in enumerate(self.threads):
            out.extend((t, i, inv) for i, inv in enumerate(thread))
        return out

    def display(self) -> str:
        init = " ".join(inv.display() for inv in self.init)
        threads = " | ".join(
            " ".join(inv.display() for inv in thread) for thread in self.threads
        )
        prefix = f"{init} " if init else ""
        return f"{prefix}( {threads} )"
