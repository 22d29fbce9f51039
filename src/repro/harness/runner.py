"""Experiment runner: regenerates the quantitative results of Section 4.

The runner wraps the checker with bookkeeping so that each experiment
(benchmark module) can produce the same rows/series the paper reports:

* :func:`inclusion_row` — one row of the Fig. 10 table (unrolled size,
  encoding time, CNF size, solver time, total time);
* :func:`mining_point` — one data point of Fig. 11a (observation set size vs
  enumeration time, for both the SAT miner and the reference miner);
* :func:`breakdown` — the Fig. 11b average time breakdown;
* :func:`range_analysis_comparison` — one point of Fig. 11c;
* :func:`method_comparison` — one point of Fig. 12 (observation-set method
  vs the commit-point style baseline);
* :func:`fence_experiment` — the Section 4.2 experiment (unfenced fails,
  fenced passes).

Matrix-shaped experiments (a whole catalog, or one test under several
models) go through :mod:`repro.harness.matrix`: :func:`catalog_matrix`
runs Fig. 8 x models across a worker pool, and :func:`model_sweep` is the
one-test-many-models special case.  :func:`fuzz_campaign` runs the
differential litmus fuzzer (oracle vs SAT encoding) through the same pool.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field

from repro.core.checker import CheckFence, CheckOptions
from repro.core.commitpoint import run_commit_point_check
from repro.core.results import CheckResult
from repro.core.specification import (
    ReferenceSpecificationMiner,
    SatSpecificationMiner,
)
from repro.encoding.formula import order_counter_dict
from repro.datatypes.registry import (
    base_implementations,
    category_of,
    get_implementation,
)
from repro.harness.catalog import get_test
from repro.harness.matrix import MatrixCell, MatrixResult, catalog_cells, run_matrix
from repro.memorymodel.base import get_model


def large_tests_enabled() -> bool:
    """Large catalog tests are only run when CHECKFENCE_LARGE=1."""
    return os.environ.get("CHECKFENCE_LARGE", "0") == "1"


@dataclass
class InclusionRow:
    """One row of the Fig. 10 statistics table."""

    implementation: str
    test: str
    memory_model: str
    instructions: int
    loads: int
    stores: int
    accesses: int
    encode_seconds: float
    cnf_variables: int
    cnf_clauses: int
    solve_seconds: float
    total_seconds: float
    passed: bool
    order_pairs: int = 0
    order_vars: int = 0
    order_pairs_static: int = 0
    transitivity_clauses: int = 0
    solver_backend: str = ""
    solver_counters_available: bool = True
    solver_decisions: int = 0
    solver_conflicts: int = 0
    solver_propagations: int = 0
    solver_restarts: int = 0
    solver_learned_clauses: int = 0
    solver_deleted_clauses: int = 0
    solver_vars_eliminated: int = 0
    solver_clauses_subsumed: int = 0
    solver_equiv_merged: int = 0
    solver_preprocess_seconds: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)

    def solver_dict(self) -> dict:
        """Per-backend solver counters (embedded in benchmark JSON); the
        same key set as :meth:`CheckStatistics.solver_dict`, derived
        mechanically from the ``solver_*`` fields."""
        prefix = "solver_"
        return {
            key[len(prefix):]: value
            for key, value in asdict(self).items()
            if key.startswith(prefix)
        }

    def order_dict(self) -> dict:
        """Memory-order encoding counters (embedded in benchmark JSON);
        the same key set as :meth:`CheckStatistics.order_dict`."""
        return order_counter_dict(self)


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


def model_sweep(
    implementation_name: str,
    test_name: str,
    memory_models,
    options: CheckOptions | None = None,
    jobs: int | None = None,
    shard_by: str = "test",
) -> list[CheckResult]:
    """Check one catalog test under several memory models.

    Routed through :func:`repro.harness.matrix.run_matrix`.  With the
    default ``shard_by="test"`` every model lands in one shard, so one
    :class:`~repro.core.session.CheckSession` compiles the test once and
    mines its specification once (the deterministic serial path, whatever
    ``jobs`` says).  Pass ``shard_by="model"`` with ``jobs>1`` to trade
    that reuse for wall-clock parallelism across models.
    """
    cells = [
        MatrixCell(implementation_name, test_name, get_model(m).name)
        for m in memory_models
    ]
    matrix = run_matrix(cells, jobs=jobs, shard_by=shard_by, options=options)
    for cell_result in matrix.results:
        if cell_result.error:
            raise RuntimeError(
                f"model_sweep cell {cell_result.cell.key} failed: "
                f"{cell_result.error}"
            )
    return [cell_result.result for cell_result in matrix.results]


def catalog_matrix(
    implementations=None,
    memory_models=("relaxed",),
    tests=None,
    size: str = "small",
    jobs: int | None = None,
    shard_by: str = "test",
    options: CheckOptions | None = None,
    progress=None,
) -> MatrixResult:
    """Run a Fig. 8 catalog matrix: (implementation x test x model) cells
    sharded across a worker pool (see :mod:`repro.harness.matrix`).

    ``implementations=None`` checks the five Table 1 base implementations;
    ``tests=None`` selects each implementation's catalog tests of the given
    ``size`` class.
    """
    if implementations is None:
        implementations = base_implementations()
    cells = catalog_cells(
        implementations, models=memory_models, tests=tests, size=size
    )
    return run_matrix(
        cells, jobs=jobs, shard_by=shard_by, options=options, progress=progress
    )


def fuzz_campaign(
    budget: int,
    seed: int,
    memory_models=("serial", "sc", "tso", "pso", "relaxed"),
    jobs: int | None = None,
    options: CheckOptions | None = None,
    progress=None,
):
    """Run a differential fuzzing campaign (oracle vs SAT encoding).

    A thin experiment-runner wrapper over :func:`repro.fuzz.run_fuzz`; the
    returned :class:`~repro.fuzz.harness.FuzzCampaignResult` carries the
    throughput numbers (programs/s, cells/s) the fuzz benchmark records.
    """
    from repro.fuzz import run_fuzz

    return run_fuzz(
        budget=budget,
        seed=seed,
        models=memory_models,
        jobs=jobs,
        options=options,
        progress=progress,
    )


def inclusion_row(
    implementation_name: str,
    test_name: str,
    memory_model: str = "relaxed",
    options: CheckOptions | None = None,
) -> InclusionRow:
    """Produce one Fig. 10 row."""
    result = check_catalog_test(
        implementation_name, test_name, memory_model, options
    )
    stats = result.stats
    return InclusionRow(
        implementation=implementation_name,
        test=test_name,
        memory_model=memory_model,
        instructions=stats.instructions,
        loads=stats.loads,
        stores=stats.stores,
        accesses=stats.accesses,
        encode_seconds=stats.encode_seconds,
        cnf_variables=stats.cnf_variables,
        cnf_clauses=stats.cnf_clauses,
        solve_seconds=stats.solve_seconds,
        total_seconds=stats.total_seconds,
        passed=result.passed,
        order_pairs=stats.order_pairs,
        order_vars=stats.order_vars,
        order_pairs_static=stats.order_pairs_static,
        transitivity_clauses=stats.transitivity_clauses,
        # One source of truth for the counter set: CheckStatistics.
        **{f"solver_{key}": value for key, value in stats.solver_dict().items()},
    )


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
