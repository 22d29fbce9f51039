"""Incremental check sessions: the one way to run a check.

A :class:`CheckSession` runs the check of Fig. 1 for one implementation
and owns the state that is expensive to rebuild and profitable to share
across its checks:

* the lowered LSL program (compiled once per session);
* compiled tests (inline + unroll + analyze), keyed so that checking the
  same test under several memory models compiles it once;
* mined specifications (one observation set per test, regardless of how
  many models the test is later checked under).

Each check encodes its formula once and solves it once: "some ``assert``
fails or the observation is outside the mined set" is one query
(:func:`repro.core.inclusion.run_inclusion_check`).  The query adds
permanent clauses (measurably stronger than guard-literal variants), so
the formula never outlives its check.

Sessions are also the unit of warmth in the check matrix
(:mod:`repro.harness.matrix`): each worker process keeps one session per
implementation and batches cells so the compile/mine caches hit.
"""

from __future__ import annotations

import sys
import time
from dataclasses import asdict

from repro.core import limits
from repro.core import store as result_store
from repro.core.checker import CheckOptions
from repro.core.inclusion import run_inclusion_check
from repro.core.loop_bounds import refine_loop_bounds
from repro.core.results import CheckResult, CheckStatistics, profile_enabled
from repro.core.specification import ObservationSet, mine_specification
from repro.datatypes.spec import DataTypeImplementation
from repro.encoding.formula import encode_test
from repro.encoding.testprogram import CompiledTest, compile_test
from repro.lang.lower import compile_c
from repro.lsl.program import Program, SymbolicTest
from repro.memorymodel.base import MemoryModel, get_model
from repro.sat.backend import make_backend_factory

#: The note of a FAIL verdict, by the kind of its counterexample.
_FAIL_NOTES = {
    "assertion": "an assertion in the implementation can fail",
    "observation": (
        "an execution is not observationally equivalent to any serial "
        "execution"
    ),
}


class CheckSession:
    """Caches and incremental solver state for checking one implementation."""

    #: The memory-order construction, skeleton reuse and the solver stack
    #: (no CNF preprocessor) are fixed; these constants remain because
    #: ``perfbench/run.py`` prints them.
    dense_order = False
    share_encode = True
    simplify = False

    def __init__(
        self,
        implementation: DataTypeImplementation,
        options: CheckOptions | None = None,
    ) -> None:
        self.implementation = implementation
        self.options = options if options is not None else CheckOptions()
        self.program: Program = compile_c(
            implementation.source, implementation.name
        )
        #: Builds every backend stack of this session; the native library
        #: loads with the first stack (or the first encode).
        self.backend_factory = make_backend_factory(
            self.options.solver_backend
        )
        #: Persistent on-disk store (None when disabled — the default).
        self.store = result_store.open_store(self.options.store)
        self._compiled: dict[tuple, CompiledTest] = {}
        self._specifications: dict[tuple, ObservationSet] = {}
        #: How often each cacheable stage actually ran (observability for
        #: the matrix and tests of the reuse behavior).  ``encode`` counts
        #: formulas, one per check that reached the encoder.
        #: ``store_hits`` / ``store_misses`` count persistent-store lookups
        #: (verdict and specification cells) and stay zero while the store
        #: is off.
        self.cache_stats = {
            "compile": 0, "compile_hits": 0,
            "mine": 0, "mine_hits": 0,
            "encode": 0,
            "store_hits": 0, "store_misses": 0,
        }

    # ------------------------------------------------------------- pipeline

    @staticmethod
    def _test_key(test: SymbolicTest) -> tuple:
        """Content fingerprint of a test, so two distinct tests that happen
        to share a name are never conflated by the caches (Invocation and
        its fields have deterministic dataclass reprs)."""
        return (test.name, repr(test.init), repr(test.threads))

    # ------------------------------------------------------ persistent store

    def _options_fingerprint(self) -> list:
        """The option values a verdict (or mined specification) depends on.

        The solver backend is deliberately excluded: every backend is
        verdict-preserving by construction and gated so differentially in
        CI, and keying on it would make a store populated under one
        backend useless under another.  The resource budgets
        (``timeout`` / ``memory_limit_mb``) are excluded too: a completed
        verdict does not depend on the budget it ran under, and degraded
        results are never stored in the first place.
        """
        options = self.options
        return [
            options.specification_method,
            options.default_loop_bound,
            sorted((options.loop_bounds or {}).items()),
            options.lazy_loop_bounds,
            options.use_range_analysis,
        ]

    def _store_key(self, kind: str, test: SymbolicTest, model_name) -> str:
        return result_store.content_key(kind, [
            self.implementation.name,
            self.implementation.source,
            list(self._test_key(test)),
            model_name,
            self._options_fingerprint(),
        ])

    def compile(self, test: SymbolicTest, model: MemoryModel | str) -> CompiledTest:
        """Compile (inline + unroll + analyze) a test, honoring the options.

        Compilation is model-independent unless lazy loop-bound refinement
        is on (the refinement solves under the model), so the cache key only
        includes the model in that case and checking the test under several
        models compiles it exactly once.
        """
        model = get_model(model)
        key = (
            self._test_key(test),
            model.name if self.options.lazy_loop_bounds else None,
        )
        cached = self._compiled.get(key)
        if cached is not None:
            self.cache_stats["compile_hits"] += 1
            return cached
        self.cache_stats["compile"] += 1
        compiled = self._compile_uncached(test, model)
        self._compiled[key] = compiled
        return compiled

    def _compile_uncached(
        self, test: SymbolicTest, model: MemoryModel
    ) -> CompiledTest:
        if self.options.lazy_loop_bounds:
            refined = refine_loop_bounds(
                self.implementation,
                test,
                model,
                initial_bound=self.options.default_loop_bound
                or self.implementation.default_loop_bound,
                program=self.program,
                use_range_analysis=self.options.use_range_analysis,
                backend_factory=self.backend_factory,
            )
            merged = dict(refined.bounds)
            if self.options.loop_bounds:
                merged.update(self.options.loop_bounds)
            return compile_test(
                self.implementation,
                test,
                loop_bounds=merged,
                default_bound=self.options.default_loop_bound,
                use_range_analysis=self.options.use_range_analysis,
                program=self.program,
            )
        return compile_test(
            self.implementation,
            test,
            loop_bounds=self.options.loop_bounds,
            default_bound=self.options.default_loop_bound,
            use_range_analysis=self.options.use_range_analysis,
            program=self.program,
        )

    def specification(
        self, test: SymbolicTest, compiled: CompiledTest | None = None
    ) -> ObservationSet:
        """Mine (and cache) the observation set of a test.

        The specification only depends on the test and the implementation —
        never on the memory model under check — so it is mined once however
        many models check the test.
        """
        key = self._test_key(test)
        cached = self._specifications.get(key)
        if cached is not None:
            self.cache_stats["mine_hits"] += 1
            return cached
        store_key = None
        if self.store is not None:
            # The spec cell is model-independent (mined under the serial
            # model whatever the check's model is), so it saves the mining
            # even when the verdict cell of a new model misses.
            store_key = self._store_key(result_store.SPEC_KIND, test, None)
            payload = self.store.get(store_key)
            if payload is not None:
                self.cache_stats["store_hits"] += 1
                spec = result_store.restore_spec(payload)
                self._specifications[key] = spec
                return spec
            self.cache_stats["store_misses"] += 1
        self.cache_stats["mine"] += 1
        if compiled is None:
            compiled = self.compile(test, "serial")
        spec = mine_specification(
            compiled,
            self.options.specification_method,
            backend_factory=self.backend_factory,
        )
        self._specifications[key] = spec
        if store_key is not None:
            self.store.put(
                store_key, result_store.SPEC_KIND,
                result_store.spec_payload(spec),
            )
        return spec

    # ---------------------------------------------------------------- check

    def check(self, test: SymbolicTest, memory_model: MemoryModel | str) -> CheckResult:
        """Run the full check of Fig. 1 for one test and memory model.

        With the persistent store enabled, a verdict cell whose content
        key matches (implementation source, test, model, options, checker
        code version) short-circuits the whole pipeline — no compile, no
        mining, no solving; the restored result carries the original
        run's statistics plus ``stats.store_hit``.

        A wall-clock or memory budget (``options.timeout`` /
        ``options.memory_limit_mb``, or an ambient matrix per-cell
        deadline) turns a blown-up check into a degraded ``TIMEOUT`` /
        ``OOM`` result instead of an unbounded run.  Degraded results are
        never written to the store — a budget breach describes this run,
        not the (implementation, test, model) triple.
        """
        model = get_model(memory_model)
        total_start = time.perf_counter()
        store_key = None
        if self.store is not None:
            store_key = self._store_key(
                result_store.VERDICT_KIND, test, model.name
            )
            payload = self.store.get(store_key)
            if payload is not None:
                self.cache_stats["store_hits"] += 1
                result = result_store.restore_result(payload)
                result.stats.total_seconds = time.perf_counter() - total_start
                if profile_enabled():
                    print(result.stats.profile_line(), file=sys.stderr)
                return result
            self.cache_stats["store_misses"] += 1
        with limits.ensure_scope(self.options):
            try:
                result = self._check_pipeline(test, model, total_start)
            except limits.LimitExceeded as exc:
                result = self._degraded_result(test, model, exc, total_start)
        if store_key is not None and not result.degraded:
            self.store.put(
                store_key, result_store.VERDICT_KIND,
                result_store.result_payload(result),
            )
        if profile_enabled():
            print(result.stats.profile_line(), file=sys.stderr)
        return result

    def _degraded_result(
        self, test: SymbolicTest, model: MemoryModel, exc, total_start: float
    ) -> CheckResult:
        stats = CheckStatistics(
            implementation=self.implementation.name,
            test=test.name,
            memory_model=model.name,
            total_seconds=time.perf_counter() - total_start,
            degraded=exc.kind,
        )
        return CheckResult(
            passed=False,
            implementation=self.implementation.name,
            test=test.name,
            memory_model=model.name,
            stats=stats,
            notes=[str(exc)],
            degraded=exc.kind,
        )

    def _check_pipeline(
        self, test: SymbolicTest, model: MemoryModel, total_start: float
    ) -> CheckResult:
        # Phase-boundary polls: the loops inside each phase poll on their
        # own gas counters, but a budget that expires between phases (or
        # during an unpolled stretch like C compilation) must still stop
        # the check at the next seam.
        compiled = self.compile(test, model)
        compile_seconds = time.perf_counter() - total_start
        limits.check_deadline()
        # Timed here, not read off the specification: a cache or store
        # hit costs this check the lookup, not the original mining.
        mining_start = time.perf_counter()
        specification = self.specification(test, compiled=compiled)
        mining_seconds = time.perf_counter() - mining_start
        limits.check_deadline()
        self.cache_stats["encode"] += 1
        encoded = encode_test(
            compiled, model, backend_factory=self.backend_factory
        )
        limits.check_deadline()

        stats = CheckStatistics(
            implementation=self.implementation.name,
            test=test.name,
            memory_model=model.name,
            observation_set_size=len(specification),
            compile_seconds=compile_seconds,
            mining_seconds=mining_seconds,
            **asdict(encoded.stats),
        )

        outcome = run_inclusion_check(
            compiled, model, specification, encoded=encoded
        )
        stats.solve_seconds = outcome.solve_seconds
        counterexample = outcome.counterexample
        notes = [_FAIL_NOTES[counterexample.kind]] if counterexample else []

        # The formula is this check's own, so its backend's cumulative
        # counters are the check's.
        stats.merge_solver(encoded.solver_stats, encoded.backend_name)
        stats.total_seconds = time.perf_counter() - total_start

        return CheckResult(
            passed=outcome.passed,
            implementation=self.implementation.name,
            test=test.name,
            memory_model=model.name,
            specification=specification,
            counterexample=counterexample,
            stats=stats,
            loop_bounds=dict(compiled.loop_bounds),
            notes=notes,
        )

    # ----------------------------------------------------------- synthesis

    def synthesize(self, test: SymbolicTest, memory_models):
        """Synthesize a minimal fence set that makes ``test`` PASS under
        every model in ``memory_models`` (see
        :func:`repro.core.synthesize.synthesize_fences`).  Runs warm: the
        mined specification is shared with :meth:`check` via the session
        cache, and the whole search reuses one incremental backend per
        model."""
        # Imported here to avoid a cycle: synthesize drives sessions.
        from repro.core.synthesize import synthesize_fences

        return synthesize_fences(self, test, memory_models)
