"""The options of one check (Fig. 1 / Fig. 3).

:class:`repro.core.session.CheckSession` runs the check: compile the test
against the implementation, mine the specification, and run the assertion
and inclusion checks under the requested memory model, returning a
:class:`repro.core.results.CheckResult` with a counterexample trace when
the check fails.  For many checks at once — several implementations,
tests, or models — use the check matrix (:mod:`repro.harness.matrix` /
``checkfence matrix``).
"""

from __future__ import annotations

from dataclasses import dataclass


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
    #: SAT backend spec: "auto" (the native kernel), "internal" (the
    #: pure-Python kernel) or "ipasir:<path>" (see
    #: :mod:`repro.sat.backend`, which also decides whether the CNF
    #: preprocessor runs).  None uses CHECKFENCE_SOLVER or auto.
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
