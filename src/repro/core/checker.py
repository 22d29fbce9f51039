"""The options of one check (Fig. 1 / Fig. 3).

:class:`repro.core.session.CheckSession` runs the check: compile the test
against the implementation, mine the specification, and solve once for an
execution under the requested memory model that fails an ``assert`` or
whose observation the specification does not contain, returning a
:class:`repro.core.results.CheckResult` with a counterexample trace when
the check fails.  For many checks at once — several implementations,
tests, or models — use the check matrix (:mod:`repro.harness.matrix` /
``checkfence matrix``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def is_loop_bound(value) -> bool:
    """A loop bound is an integer of at least 1."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def is_solve_budget(value) -> bool:
    """A solve budget is an integer of at least 0 (0: no solve)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def is_budget(value) -> bool:
    """A resource budget is a positive finite number."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


@dataclass
class CheckOptions:
    """Knobs controlling one check run.

    Options are read when a ``CheckSession`` is constructed (the solver
    backend is resolved and caches are keyed accordingly); mutating them
    afterwards has no effect on that session — build a new one instead.
    The dataclass is picklable: one options value configures every worker
    of a matrix run (:func:`repro.harness.matrix.run_matrix`).
    """

    #: "auto", "reference", or "sat" (Section 3.2 / Fig. 11a "refset").
    specification_method: str = "auto"
    #: Default loop bound (None: the implementation's declared default).
    default_loop_bound: int | None = None
    #: Explicit per-loop bounds (tags as produced by the unroller).
    loop_bounds: dict[str, int] | None = None
    #: Run the lazy loop-bound refinement of Section 3.3 first.
    lazy_loop_bounds: bool = False
    #: Apply the range analysis of Section 3.4 (Fig. 11c turns it off).
    use_range_analysis: bool = True
    #: SAT backend spec: "auto" (the native kernel) or "ipasir:<path>"
    #: (see :mod:`repro.sat.backend`).  None uses CHECKFENCE_SOLVER or
    #: auto.
    solver_backend: str | None = None
    #: Consult (and populate) the persistent on-disk result store
    #: (:mod:`repro.core.store`): verdicts and mined observation sets keyed
    #: by a content hash of implementation source, test, model, options,
    #: and checker code version.  Off unless asked for (``--store``).
    store: bool = False
    #: Wall-clock budget in seconds for one check (compile + mine + encode
    #: + solve).  On expiry the check degrades to a first-class ``TIMEOUT``
    #: verdict instead of running forever (the consistency problem is
    #: NP-hard; some cells will blow up).  None: unlimited.  Never part
    #: of the store fingerprint — degraded results are never cached.
    timeout: float | None = None
    #: Resident-memory cap in MB for one check, enforced at the same poll
    #: sites as ``timeout`` and degrading to an ``OOM`` verdict.  None:
    #: unlimited.
    memory_limit_mb: float | None = None
    #: Solve budget of the escalation from destructive deletion to the
    #: exact (implicit hitting set) search, which proves cost-optimality
    #: of the synthesized set; when exhausted (at once for 0) the
    #: 1-minimal deletion result is returned with ``optimal=False``.
    synthesis_budget: int = 60

    def __post_init__(self) -> None:
        """Reject what the CLI rejects: a loop bound below 1 (the unroller
        would drop the loop body and the check would PASS over a cut
        program), a budget that is not a positive finite number (an
        instant TIMEOUT or OOM), and a synthesis budget that is not an
        integer of at least 0 (a negative one would act as 0)."""
        bounds = [("default_loop_bound", self.default_loop_bound)]
        bounds += [
            (f"loop_bounds[{tag!r}]", bound)
            for tag, bound in (self.loop_bounds or {}).items()
        ]
        for name, bound in bounds:
            if bound is not None and not is_loop_bound(bound):
                raise ValueError(
                    f"{name} must be an integer of at least 1, got {bound!r}"
                )
        for name in ("timeout", "memory_limit_mb"):
            value = getattr(self, name)
            if value is not None and not is_budget(value):
                raise ValueError(
                    f"{name} must be None or a positive finite number, "
                    f"got {value!r}"
                )
        if not is_solve_budget(self.synthesis_budget):
            raise ValueError(
                "synthesis_budget must be an integer of at least 0, "
                f"got {self.synthesis_budget!r}"
            )
