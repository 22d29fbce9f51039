"""Result objects returned by the checker."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

from repro.core import limits
from repro.core.counterexample import CounterexampleTrace
from repro.core.specification import ObservationSet
from repro.encoding.formula import EncodingStatistics
from repro.sat.solver import SolverStats


@dataclass
class CheckStatistics(EncodingStatistics):
    """Timing and size statistics for one check (one row of Fig. 10): the
    formula's :class:`EncodingStatistics` plus the check's own counters.

    ``encode_seconds`` splits into the model-independent skeleton build
    (zero when a memoized skeleton was reused — ``skeleton_shared``) and
    the per-model layer.
    """

    #: No check preprocesses its CNF.  A class constant, not a field, so
    #: it stays out of ``asdict``, the JSON and the store payload; it
    #: remains because ``perfbench/workloads.py`` prints it.
    solver_preprocess_seconds = 0.0

    implementation: str = ""
    test: str = ""
    memory_model: str = ""
    observation_set_size: int = 0
    #: Per-phase wall-clock breakdown of one check.  ``compile_seconds``
    #: and ``mining_seconds`` are near-zero on session-cache hits.
    compile_seconds: float = 0.0
    mining_seconds: float = 0.0
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    #: True when this result was served from the persistent on-disk store
    #: (:mod:`repro.core.store`) — the other phase timings then describe
    #: the original run that populated the cell, not this one.
    store_hit: bool = False
    #: ``solver_<name>`` holds the check's ``SolverStats.<name>`` (see
    #: :meth:`merge_solver`); every ``SolverStats`` field has one.
    solver_decisions: int = 0
    solver_propagations: int = 0
    solver_conflicts: int = 0
    solver_restarts: int = 0
    solver_learned_clauses: int = 0
    solver_deleted_clauses: int = 0
    solver_max_decision_level: int = 0
    solver_backend: str = ""
    #: False when the backend cannot report counters, so zeros are not
    #: mistaken for a trivially easy instance.
    solver_counters_available: bool = True
    #: "" for a completed check; "TIMEOUT" / "OOM" when a resource budget
    #: (:mod:`repro.core.limits`) expired mid-check.  Degraded checks keep
    #: whatever phase counters were accumulated before the breach.
    degraded: str = ""

    def merge_solver(
        self, stats: SolverStats | None, backend_name: str | None = None
    ) -> None:
        """Record one check's solver counters; ``stats=None`` marks them
        as unavailable."""
        if stats is not None:
            for f in fields(stats):
                setattr(self, f"solver_{f.name}", getattr(stats, f.name))
        else:
            self.solver_counters_available = False
        if backend_name:
            self.solver_backend = backend_name

    def solver_dict(self) -> dict:
        """The per-backend solver counters, for benchmark JSON output."""
        return {
            "backend": self.solver_backend,
            "counters_available": self.solver_counters_available,
            **{
                f.name: getattr(self, f"solver_{f.name}")
                for f in fields(SolverStats)
            },
        }

    def as_dict(self) -> dict:
        """Every field plus the phase breakdown, for ``matrix --json``
        cells (``backend`` names the solver stack, as in litmus cells)."""
        return {
            "backend": self.solver_backend,
            **asdict(self),
            **self.phase_dict(),
        }

    def phase_dict(self) -> dict:
        """The per-phase timing breakdown, for ``matrix --json`` cells."""
        return {
            "compile_seconds": self.compile_seconds,
            "mining_seconds": self.mining_seconds,
            "encode_seconds": self.encode_seconds,
            "skeleton_seconds": self.skeleton_seconds,
            "layer_seconds": self.layer_seconds,
            "skeleton_shared": self.skeleton_shared,
            "solve_seconds": self.solve_seconds,
            "total_seconds": self.total_seconds,
            "store_hit": self.store_hit,
            "degraded": self.degraded,
        }

    def profile_line(self) -> str:
        """One-line per-cell phase report (the ``CHECKFENCE_PROFILE=1``
        output); encode shows its skeleton and layer parts."""
        label = f"{self.implementation}/{self.test}@{self.memory_model}"
        if self.store_hit:
            return f"[profile] {label} store-hit total={self.total_seconds:.3f}s"
        skeleton = (
            "shared"
            if self.skeleton_shared
            else f"{self.skeleton_seconds:.3f}s"
        )
        return (
            f"[profile] {label} "
            f"compile={self.compile_seconds:.3f}s "
            f"mine={self.mining_seconds:.3f}s "
            f"encode={self.encode_seconds:.3f}s"
            f"(skeleton {skeleton} + layer {self.layer_seconds:.3f}s) "
            f"solve={self.solve_seconds:.3f}s "
            f"total={self.total_seconds:.3f}s"
        )


def profile_enabled() -> bool:
    """The ``CHECKFENCE_PROFILE`` knob (default off): when on, every check
    prints its :meth:`CheckStatistics.profile_line` to stderr."""
    return limits.env_flag("CHECKFENCE_PROFILE")


@dataclass
class CheckResult:
    """Outcome of checking one test against one memory model."""

    passed: bool
    implementation: str
    test: str
    memory_model: str
    specification: ObservationSet | None = None
    counterexample: CounterexampleTrace | None = None
    stats: CheckStatistics = field(default_factory=CheckStatistics)
    loop_bounds: dict[str, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: "" for a completed check; "TIMEOUT" / "OOM" when a resource budget
    #: expired.  ``passed`` is False then, but a degraded result is *not*
    #: evidence of a bug — it must never be conflated with FAIL, and it is
    #: never written to the persistent store.
    degraded: str = ""

    @property
    def failed(self) -> bool:
        return not self.passed and not self.degraded

    @property
    def verdict(self) -> str:
        if self.degraded:
            return self.degraded
        return "PASS" if self.passed else "FAIL"

    def summary(self) -> str:
        verdict = self.verdict
        line = (
            f"[{verdict}] {self.implementation} / {self.test} "
            f"on {self.memory_model}: "
            f"{self.stats.accesses} accesses, "
            f"{self.stats.cnf_clauses} clauses, "
            f"spec size {self.stats.observation_set_size}, "
            f"total {self.stats.total_seconds:.2f}s"
        )
        if self.counterexample is not None:
            line += f"\n{self.counterexample.format()}"
        return line
