"""Static resolution of heap allocations.

The bounded, unrolled test program contains a fixed number of ``Alloc``
statements; each one is mapped to a distinct heap object in the memory
layout.  (The paper lets the allocator choose addresses nondeterministically,
which multiplies the number of distinct serial executions without changing
the observation set; we use a deterministic layout — see "Substitutions"
in docs/paper-map.md.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lsl.instructions import Alloc, Statement, iter_statements
from repro.lsl.layout import MemoryLayout
from repro.lsl.program import Program


@dataclass
class AllocationMap:
    """Maps each Alloc statement (by identity) to its base location index."""

    layout: MemoryLayout
    bases: dict[int, int] = field(default_factory=dict)

    def base_for(self, stmt: Alloc) -> int:
        return self.bases[id(stmt)]

    def has(self, stmt: Alloc) -> bool:
        return id(stmt) in self.bases


def build_layout(program: Program) -> MemoryLayout:
    """Create a layout containing the program's globals, in declaration order.

    This must agree with the base indices the C front-end assigned during
    lowering (globals start at index 1 and occupy ``num_cells`` each).
    """
    layout = MemoryLayout()
    for decl in program.globals:
        layout.add_global(decl.name, decl.field_names, decl.initial)
    return layout


def resolve_allocations(
    thread_bodies: list[list[Statement]],
    layout: MemoryLayout,
) -> AllocationMap:
    """Assign a heap object to every Alloc statement in the given threads."""
    allocation = AllocationMap(layout=layout)
    for thread_index, body in enumerate(thread_bodies):
        counter = 0
        for stmt in iter_statements(body):
            if isinstance(stmt, Alloc):
                counter += 1
                hint = f"t{thread_index}.{stmt.type_name}.{counter}"
                field_names = stmt.field_names or tuple(
                    f"f{i}" for i in range(stmt.num_cells)
                )
                base = layout.add_heap_object(hint, field_names)
                allocation.bases[id(stmt)] = base
    return allocation
