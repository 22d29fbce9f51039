"""The CheckFence driver (Fig. 1 / Fig. 3).

:class:`CheckFence` ties the whole pipeline together: compile the test
against the implementation, mine the specification, and run the assertion
and inclusion checks under the requested memory model, returning a
:class:`repro.core.results.CheckResult` with a counterexample trace when the
check fails.

The heavy lifting (and all caching / incremental-solver state) lives in
:class:`repro.core.session.CheckSession`; ``CheckFence`` is the stable
facade over one session.  For many checks at once — several
implementations, tests, or models — use the parallel check matrix
(:mod:`repro.harness.matrix` / ``checkfence matrix``) instead of looping
over facades.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import CheckResult
from repro.core.session import CheckSession
from repro.core.specification import ObservationSet
from repro.datatypes.spec import DataTypeImplementation
from repro.encoding.testprogram import CompiledTest
from repro.lsl.program import Program, SymbolicTest
from repro.memorymodel.base import MemoryModel


@dataclass
class CheckOptions:
    """Knobs controlling one check run.

    Options are read when a :class:`CheckFence` / ``CheckSession`` is
    constructed (the solver backend is resolved and caches are keyed
    accordingly); mutating them afterwards has no effect on that checker —
    build a new one instead.  The dataclass is picklable: one options
    value configures every worker of a matrix run
    (:func:`repro.harness.matrix.run_matrix`).
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
    #: Also search for assertion violations (Section 4.1 bugs).
    check_assertions: bool = True
    #: SAT backend spec: "auto" (the native kernel), "internal" (the
    #: pure-Python kernel) or "ipasir:<path>" (see
    #: :mod:`repro.sat.backend`, which also decides whether the CNF
    #: preprocessor runs).  None uses CHECKFENCE_SOLVER or auto.
    solver_backend: str | None = None
    #: Consult (and populate) the persistent on-disk result store
    #: (:mod:`repro.core.store`): verdicts and mined observation sets keyed
    #: by a content hash of implementation source, test, model, options,
    #: and checker code version.  None defers to CHECKFENCE_STORE
    #: (default: off; enable with ``--store`` / ``CHECKFENCE_STORE=1``,
    #: disable an inherited environment setting with ``--no-store``).
    store: bool | None = None
    #: Wall-clock budget in seconds for one check (compile + mine + encode
    #: + solve).  On expiry the check degrades to a first-class ``TIMEOUT``
    #: verdict instead of running forever (the consistency problem is
    #: NP-hard; some cells will blow up).  None defers to
    #: CHECKFENCE_TIMEOUT (default: unlimited).  Never part of the store
    #: fingerprint — degraded results are never cached.
    timeout: float | None = None
    #: Resident-memory cap in MB for one check, enforced at the same poll
    #: sites as ``timeout`` and degrading to an ``OOM`` verdict.  None
    #: defers to CHECKFENCE_MEMORY_LIMIT (default: unlimited).
    memory_limit_mb: float | None = None
    #: Fence kinds offered at every candidate slot during synthesis
    #: (``checkfence synthesize``).  None: the four partial kinds.
    synthesis_kinds: tuple | None = None
    #: Solve budget of the escalation from destructive deletion to the
    #: exact (implicit hitting set) search, which proves cost-optimality
    #: of the synthesized set; when exhausted (at once for 0) the
    #: 1-minimal deletion result is returned with ``optimal=False``.
    synthesis_budget: int = 60


class CheckFence:
    """Checks data type implementations against bounded symbolic tests."""

    def __init__(
        self,
        implementation: DataTypeImplementation,
        options: CheckOptions | None = None,
    ) -> None:
        self.session = CheckSession(implementation, options or CheckOptions())

    @property
    def implementation(self) -> DataTypeImplementation:
        return self.session.implementation

    @property
    def options(self) -> CheckOptions:
        return self.session.options

    @property
    def program(self) -> Program:
        return self.session.program

    # --------------------------------------------------------------- public

    def compile(self, test: SymbolicTest, model: MemoryModel | str) -> CompiledTest:
        """Compile (inline + unroll + analyze) a test, honoring the options."""
        return self.session.compile(test, model)

    def specification(
        self, test: SymbolicTest, compiled: CompiledTest | None = None
    ) -> ObservationSet:
        """Mine (and cache) the observation set of a test."""
        return self.session.specification(test, compiled)

    def check(self, test: SymbolicTest, memory_model: MemoryModel | str) -> CheckResult:
        """Run the full check of Fig. 1 for one test and memory model."""
        return self.session.check(test, memory_model)

    def sweep(self, test: SymbolicTest, memory_models) -> list[CheckResult]:
        """Check one test under several memory models, sharing the compiled
        test and the mined specification across them."""
        return self.session.sweep(test, memory_models)

    def synthesize(self, test: SymbolicTest, memory_models, kinds=None):
        """Synthesize a minimal fence set making the test PASS under every
        given model (see :func:`repro.core.synthesize.synthesize_fences`)."""
        return self.session.synthesize(test, memory_models, kinds=kinds)


def check(
    implementation: DataTypeImplementation,
    test: SymbolicTest,
    memory_model: MemoryModel | str = "relaxed",
    options: CheckOptions | None = None,
) -> CheckResult:
    """One-shot convenience wrapper around :class:`CheckFence`."""
    return CheckFence(implementation, options).check(test, memory_model)
