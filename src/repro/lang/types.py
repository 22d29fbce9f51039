"""Type environment used while lowering C to LSL.

LSL itself is untyped; the front-end only needs enough static type
information to resolve struct field offsets (``p->next``), to know how many
cells an allocation occupies, and to distinguish void from value-returning
functions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang import ast
from repro.lang.errors import LoweringError
from repro.lsl.program import StructLayout


@dataclass
class StructInfo:
    """Flattened layout of a struct: every scalar cell gets an offset."""

    name: str
    cells: tuple[str, ...]          # cell display names, in offset order
    field_offsets: dict[str, int]   # field name -> first cell offset
    field_sizes: dict[str, int]     # field name -> number of cells
    field_types: dict[str, ast.TypeExpr]

    @property
    def num_cells(self) -> int:
        return max(1, len(self.cells))

    def offset_of(self, field_name: str) -> int:
        try:
            return self.field_offsets[field_name]
        except KeyError as exc:
            raise LoweringError(
                f"struct {self.name} has no field {field_name!r}"
            ) from exc

    def to_layout(self) -> StructLayout:
        return StructLayout(self.name, self.cells)


class TypeEnv:
    """Resolves typedefs, struct layouts, and enum constants."""

    def __init__(self, unit: ast.TranslationUnit) -> None:
        self._aliases: dict[str, ast.TypeExpr] = {}
        self._structs: dict[str, StructInfo] = {}
        self.enum_constants: dict[str, int] = {}

        for typedef in unit.typedefs:
            self._aliases[typedef.name] = typedef.type
        for enum in unit.enums:
            self._aliases.setdefault(enum.name, ast.TypeExpr("int", 0))
            for name, value in enum.enumerators:
                self.enum_constants[name] = value
        for struct in unit.structs:
            self._structs[struct.name] = self._flatten(struct)

    # -------------------------------------------------------------- structs

    def _flatten(self, struct: ast.StructDef) -> StructInfo:
        cells: list[str] = []
        field_offsets: dict[str, int] = {}
        field_sizes: dict[str, int] = {}
        field_types: dict[str, ast.TypeExpr] = {}
        for field in struct.fields:
            field_offsets[field.name] = len(cells)
            field_types[field.name] = field.type
            if field.array_size is not None:
                field_sizes[field.name] = field.array_size
                cells.extend(
                    f"{field.name}[{i}]" for i in range(field.array_size)
                )
            else:
                field_sizes[field.name] = 1
                cells.append(field.name)
        return StructInfo(
            name=struct.name,
            cells=tuple(cells),
            field_offsets=field_offsets,
            field_sizes=field_sizes,
            field_types=field_types,
        )

    # ------------------------------------------------------------ resolution

    def resolve(self, type_expr: ast.TypeExpr) -> ast.TypeExpr:
        """Follow typedef aliases until a base type or struct name remains."""
        base = type_expr.base
        depth = type_expr.pointer_depth
        seen: set[str] = set()
        while base in self._aliases and base not in self._structs:
            if base in seen:
                raise LoweringError(f"cyclic typedef involving {base!r}")
            seen.add(base)
            alias = self._aliases[base]
            depth += alias.pointer_depth
            base = alias.base
        return ast.TypeExpr(base, depth)

    def struct_info(self, type_expr: ast.TypeExpr | str) -> StructInfo:
        if isinstance(type_expr, str):
            name = self.resolve(ast.TypeExpr(type_expr, 0)).base
        else:
            name = self.resolve(type_expr).base
        try:
            return self._structs[name]
        except KeyError as exc:
            raise LoweringError(f"unknown struct type {name!r}") from exc

    def has_struct(self, name: str) -> bool:
        try:
            resolved = self.resolve(ast.TypeExpr(name, 0)).base
        except LoweringError:
            return False
        return resolved in self._structs

    def struct_names(self) -> list[str]:
        return list(self._structs)

    def pointee_struct(self, type_expr: ast.TypeExpr) -> StructInfo:
        resolved = self.resolve(type_expr)
        if resolved.pointer_depth == 0:
            raise LoweringError(f"{type_expr} is not a pointer type")
        return self.struct_info(resolved.base)
