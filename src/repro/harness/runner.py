"""Experiment runner: regenerates the quantitative results of Section 4.

The runner wraps the checker with bookkeeping so that each experiment
(benchmark module) can produce the same rows/series the paper reports:

* :func:`check_catalog_test` — one check; its
  :class:`~repro.core.results.CheckResult` ``stats`` are one row of the
  Fig. 10 table (unrolled size, encoding time, CNF size, solver time,
  total time);
* :func:`mining_point` — one data point of Fig. 11a (observation set size vs
  enumeration time, for both the SAT miner and the reference miner);
* :func:`breakdown` — the Fig. 11b average time breakdown;
* :func:`range_analysis_comparison` — one point of Fig. 11c;
* :func:`method_comparison` — one point of Fig. 12 (observation-set method
  vs the commit-point style baseline);
* :func:`fence_experiment` — the Section 4.2 experiment (unfenced fails,
  fenced passes).

Matrix-shaped experiments go through :mod:`repro.harness.matrix`:
:func:`~repro.harness.matrix.run_matrix` over
:func:`~repro.harness.matrix.catalog_cells` runs Fig. 8 x models across
a worker pool, and :func:`repro.fuzz.run_fuzz` runs the differential
litmus fuzzer (oracle vs SAT encoding) through the same pool.  One test
under several models is :meth:`repro.core.session.CheckSession.sweep`.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from repro.core.checker import CheckFence, CheckOptions
from repro.core.commitpoint import run_commit_point_check
from repro.core.results import CheckResult
from repro.core.specification import (
    ReferenceSpecificationMiner,
    SatSpecificationMiner,
)
from repro.datatypes.registry import category_of, get_implementation
from repro.harness.catalog import get_test
from repro.memorymodel.base import get_model


def large_tests_enabled() -> bool:
    """Large catalog tests are only run when CHECKFENCE_LARGE=1."""
    return os.environ.get("CHECKFENCE_LARGE", "0") == "1"


def check_catalog_test(
    implementation_name: str,
    test_name: str,
    memory_model: str = "relaxed",
    options: CheckOptions | None = None,
) -> CheckResult:
    """Check one catalog test against one implementation variant."""
    implementation = get_implementation(implementation_name)
    category = category_of(implementation_name)
    test = get_test(category, test_name)
    checker = CheckFence(implementation, options)
    return checker.check(test, get_model(memory_model))


@dataclass
class MiningPoint:
    """One data point of Fig. 11a."""

    implementation: str
    test: str
    method: str
    observation_set_size: int
    mining_seconds: float


def mining_point(
    implementation_name: str, test_name: str, method: str
) -> MiningPoint:
    implementation = get_implementation(implementation_name)
    category = category_of(implementation_name)
    test = get_test(category, test_name)
    checker = CheckFence(implementation)
    compiled = checker.compile(test, "serial")
    if method == "sat":
        spec = SatSpecificationMiner(compiled).mine()
    else:
        spec = ReferenceSpecificationMiner(compiled).mine()
    return MiningPoint(
        implementation=implementation_name,
        test=test_name,
        method=method,
        observation_set_size=len(spec),
        mining_seconds=spec.mining_seconds,
    )


@dataclass
class TimeBreakdown:
    """Fig. 11b: share of total runtime per phase."""

    mining_seconds: float = 0.0
    encode_seconds: float = 0.0
    solve_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.mining_seconds + self.encode_seconds + self.solve_seconds

    def shares(self) -> dict[str, float]:
        total = self.total_seconds or 1.0
        return {
            "specification mining": self.mining_seconds / total,
            "encoding of inclusion test": self.encode_seconds / total,
            "refutation of inclusion test": self.solve_seconds / total,
        }


def breakdown(
    implementation_name: str,
    test_name: str,
    memory_model: str = "relaxed",
    specification_method: str = "sat",
) -> TimeBreakdown:
    options = CheckOptions(specification_method=specification_method)
    result = check_catalog_test(
        implementation_name, test_name, memory_model, options
    )
    return TimeBreakdown(
        mining_seconds=result.stats.mining_seconds,
        encode_seconds=result.stats.encode_seconds,
        solve_seconds=result.stats.solve_seconds,
    )


@dataclass
class RangeAnalysisComparison:
    """Fig. 11c: runtime with and without the range analysis."""

    implementation: str
    test: str
    with_analysis_seconds: float
    without_analysis_seconds: float
    with_clauses: int
    without_clauses: int

    @property
    def speedup(self) -> float:
        if self.with_analysis_seconds == 0:
            return 1.0
        return self.without_analysis_seconds / self.with_analysis_seconds


def range_analysis_comparison(
    implementation_name: str, test_name: str, memory_model: str = "relaxed"
) -> RangeAnalysisComparison:
    with_result = check_catalog_test(
        implementation_name, test_name, memory_model,
        CheckOptions(use_range_analysis=True),
    )
    without_result = check_catalog_test(
        implementation_name, test_name, memory_model,
        CheckOptions(use_range_analysis=False),
    )
    return RangeAnalysisComparison(
        implementation=implementation_name,
        test=test_name,
        with_analysis_seconds=with_result.stats.total_seconds,
        without_analysis_seconds=without_result.stats.total_seconds,
        with_clauses=with_result.stats.cnf_clauses,
        without_clauses=without_result.stats.cnf_clauses,
    )


@dataclass
class MethodComparison:
    """Fig. 12: observation-set method vs the commit-point style baseline."""

    implementation: str
    test: str
    observation_set_seconds: float
    commit_point_seconds: float
    both_agree: bool

    @property
    def speedup(self) -> float:
        if self.observation_set_seconds == 0:
            return 1.0
        return self.commit_point_seconds / self.observation_set_seconds


def method_comparison(
    implementation_name: str, test_name: str, memory_model: str = "relaxed"
) -> MethodComparison:
    implementation = get_implementation(implementation_name)
    category = category_of(implementation_name)
    test = get_test(category, test_name)
    model = get_model(memory_model)

    checker = CheckFence(implementation)
    start = time.perf_counter()
    observation_result = checker.check(test, model)
    observation_seconds = time.perf_counter() - start

    compiled = checker.compile(test, model)
    # The same backend stack on both sides of the Fig. 12 comparison.
    commit_result = run_commit_point_check(
        compiled, model, backend_factory=checker.session.backend_factory
    )
    return MethodComparison(
        implementation=implementation_name,
        test=test_name,
        observation_set_seconds=observation_seconds,
        commit_point_seconds=commit_result.total_seconds,
        both_agree=observation_result.passed == commit_result.passed,
    )


@dataclass
class FenceExperiment:
    """Section 4.2/4.3: the unfenced algorithm fails on Relaxed, the fenced
    one passes, both pass under sequential consistency — and fence synthesis
    (:mod:`repro.core.synthesize`) automatically repairs the unfenced
    variant with a verified fence set no larger than the hand-placed one."""

    implementation: str
    test: str
    fenced_passes_relaxed: bool
    unfenced_fails_relaxed: bool
    unfenced_passes_sc: bool
    counterexample: str = ""
    #: Labels of the synthesized fence set (empty when synthesis was
    #: skipped because the unfenced variant did not fail).
    synthesized_labels: tuple[str, ...] = ()
    synthesized_cost: int = 0
    synthesis_sufficient: bool = False
    synthesis_minimal: bool = False
    #: Unconditional fences in the hand-fenced variant's LSL program.
    hand_fence_count: int = 0

    @property
    def reproduces_paper(self) -> bool:
        return (
            self.fenced_passes_relaxed
            and self.unfenced_fails_relaxed
            and self.unfenced_passes_sc
        )

    @property
    def synthesis_repairs(self) -> bool:
        """Synthesis found a verified minimal fence set at most as large
        as the hand-placed one (the Section 4.3 automation claim)."""
        return (
            self.synthesis_sufficient
            and self.synthesis_minimal
            and len(self.synthesized_labels) <= self.hand_fence_count
        )


def count_hand_fences(implementation_name: str) -> int:
    """Unconditional fences in an implementation's compiled LSL program."""
    from repro.lang.lower import compile_c
    from repro.lsl.instructions import Fence, iter_statements

    implementation = get_implementation(implementation_name)
    program = compile_c(implementation.source, implementation.name)
    return sum(
        1
        for procedure in program.procedures.values()
        for stmt in iter_statements(procedure.body)
        if isinstance(stmt, Fence) and stmt.candidate is None
    )


def fence_experiment(
    base_name: str, test_name: str, synthesize: bool = True,
    memory_model: str = "relaxed",
) -> FenceExperiment:
    from repro.core.session import CheckSession

    fenced = check_catalog_test(base_name, test_name, memory_model)
    unfenced_relaxed = check_catalog_test(
        f"{base_name}-unfenced", test_name, memory_model
    )
    unfenced_sc = check_catalog_test(f"{base_name}-unfenced", test_name, "sc")
    counterexample = ""
    if unfenced_relaxed.counterexample is not None:
        counterexample = unfenced_relaxed.counterexample.format()
    synthesized_labels: tuple[str, ...] = ()
    synthesized_cost = 0
    synthesis_sufficient = False
    synthesis_minimal = False
    if synthesize and not unfenced_relaxed.passed:
        session = CheckSession(get_implementation(f"{base_name}-unfenced"))
        category = category_of(base_name)
        test = get_test(category, test_name)
        synthesis = session.synthesize(test, [memory_model])
        synthesized_labels = tuple(synthesis.labels)
        synthesized_cost = synthesis.cost
        synthesis_sufficient = synthesis.verified_sufficient
        synthesis_minimal = synthesis.verified_minimal
    return FenceExperiment(
        implementation=base_name,
        test=test_name,
        fenced_passes_relaxed=fenced.passed,
        unfenced_fails_relaxed=not unfenced_relaxed.passed,
        unfenced_passes_sc=unfenced_sc.passed,
        counterexample=counterexample,
        synthesized_labels=synthesized_labels,
        synthesized_cost=synthesized_cost,
        synthesis_sufficient=synthesis_sufficient,
        synthesis_minimal=synthesis_minimal,
        hand_fence_count=count_hand_fences(base_name),
    )
