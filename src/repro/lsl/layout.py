"""Memory layout: mapping program objects to scalar memory locations.

Every scalar cell that can be addressed during an execution (a global scalar,
a field of a global struct, or a field of a heap-allocated object) gets a
*location index*.  Index ``0`` is reserved for the null pointer.  A pointer
to an object is the index of its first cell, and field accesses add a
constant offset, which mirrors the paper's ``[base, offset...]`` pointer
representation once a concrete layout is chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lsl.values import NULL, UNDEF, Value


@dataclass
class LocationInfo:
    """Metadata about a single scalar memory cell."""

    index: int
    name: str
    object_name: str
    field_name: str | None
    is_heap: bool
    initial: Value


class MemoryLayout:
    """Allocates location indices for globals and heap objects."""

    def __init__(self) -> None:
        self._locations: list[LocationInfo] = [
            LocationInfo(NULL, "null", "null", None, False, 0)
        ]
        self._globals: dict[str, int] = {}

    # ------------------------------------------------------------- creation

    def add_global(
        self,
        name: str,
        field_names: tuple[str, ...] = (),
        initial: Value | tuple[Value, ...] = 0,
    ) -> int:
        """Register a global object and return its base location index."""
        if name in self._globals:
            raise ValueError(f"global {name!r} already declared")
        base = len(self._locations)
        cells = field_names if field_names else (None,)
        if not isinstance(initial, tuple):
            initial = tuple(initial for _ in cells)
        if len(initial) != len(cells):
            raise ValueError("initial values do not match field count")
        for offset, fname in enumerate(cells):
            display = name if fname is None else f"{name}.{fname}"
            self._locations.append(
                LocationInfo(
                    index=base + offset,
                    name=display,
                    object_name=name,
                    field_name=fname,
                    is_heap=False,
                    initial=initial[offset],
                )
            )
        self._globals[name] = base
        return base

    def add_heap_object(
        self,
        hint: str,
        field_names: tuple[str, ...],
        initial: Value = UNDEF,
    ) -> int:
        """Register a heap object (one allocation site / dynamic allocation)."""
        base = len(self._locations)
        cells = field_names if field_names else (None,)
        for offset, fname in enumerate(cells):
            display = hint if fname is None else f"{hint}.{fname}"
            self._locations.append(
                LocationInfo(
                    index=base + offset,
                    name=display,
                    object_name=hint,
                    field_name=fname,
                    is_heap=True,
                    initial=initial,
                )
            )
        return base

    # -------------------------------------------------------------- queries

    def global_base(self, name: str) -> int:
        return self._globals[name]

    @property
    def num_locations(self) -> int:
        """Number of locations including the null slot."""
        return len(self._locations)

    def info(self, index: int) -> LocationInfo:
        return self._locations[index]

    def name_of(self, index: int) -> str:
        if 0 <= index < len(self._locations):
            return self._locations[index].name
        return f"<loc {index}>"

    def initial_value(self, index: int) -> Value:
        return self._locations[index].initial

    def valid_indices(self) -> range:
        """All addressable locations (excluding the null slot)."""
        return range(1, len(self._locations))

    def initial_memory(self) -> dict[int, Value]:
        """A concrete initial memory image for the interpreter."""
        return {
            info.index: info.initial
            for info in self._locations
            if info.index != NULL
        }

    def copy(self) -> "MemoryLayout":
        out = MemoryLayout()
        out._locations = list(self._locations)
        out._globals = dict(self._globals)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryLayout({self.num_locations - 1} locations)"
