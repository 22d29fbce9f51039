"""The solver records every backend shares: :class:`SolverStats`, the
counters a solve reports, and :class:`SolverError`, raised on malformed
solver input or a kernel status that is neither SAT nor UNSAT.

The kernels live elsewhere: the native CDCL kernel in
:mod:`repro.sat.native`, external IPASIR libraries in
:mod:`repro.sat.ipasir`, both behind :mod:`repro.sat.backend`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace


@dataclass
class SolverStats:
    """Counters a backend reports after each solve.

    The native kernel builds this record positionally from the seven
    counters ``cf_stats`` fills, so the fields keep that order.
    """

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    #: A high-water mark: :meth:`since` reports it as-is.
    max_decision_level: int = field(default=0, metadata={"high_water": True})

    def copy(self) -> "SolverStats":
        return replace(self)

    def since(self, earlier: "SolverStats") -> "SolverStats":
        """Counter delta between two cumulative snapshots (for attributing
        solver work to one query when a backend is shared across queries)."""
        return SolverStats(**{
            f.name: (
                getattr(self, f.name) if "high_water" in f.metadata
                else getattr(self, f.name) - getattr(earlier, f.name)
            )
            for f in fields(self)
        })

    def as_dict(self) -> dict:
        return asdict(self)


class SolverError(RuntimeError):
    """Raised on malformed solver input (e.g. literal 0), or when a
    kernel ends a solve with neither SAT nor UNSAT and no budget says
    why."""
