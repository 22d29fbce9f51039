"""The commit-point style baseline (used for the Fig. 12 comparison).

The paper compares its *observation set* method against the earlier
commit-point method of the authors' CAV'06 case study [4], which does not
enumerate the specification up front; instead, each execution discovered by
the solver is validated against the serial semantics directly.  Since the
original commit-point artifacts (hand-written commit-point annotations plus
a symbolic encoding of the reference semantics) are not published, this
module implements a baseline with the same *cost structure*:

1. solve the memory-model formula for any execution whose observation has
   not been validated yet;
2. validate that observation against the sequential reference implementation
   by searching for a serial interleaving that reproduces it (early exit on
   success);
3. on success, block the observation and iterate; on failure, report the
   execution as a counterexample.

The method therefore performs one solver call and one (lazy) serial-search
per *distinct observation of the concurrent model*, whereas the observation
set method performs one solver call per *serial observation* plus one final
refutation.  "Substitutions" in docs/paper-map.md records the
substitution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.counterexample import CounterexampleTrace, build_trace
from repro.core.specification import ObservationSet, ReferenceSpecificationMiner
from repro.encoding.formula import encode_test
from repro.encoding.testprogram import CompiledTest
from repro.memorymodel.base import MemoryModel
from repro.sat.backend import BackendFactory


@dataclass
class CommitPointResult:
    """Outcome of the lazy (commit-point style) check."""

    passed: bool
    counterexample: CounterexampleTrace | None
    validated_observations: ObservationSet
    solver_calls: int = 0
    total_seconds: float = 0.0
    notes: list[str] = field(default_factory=list)


def run_commit_point_check(
    compiled: CompiledTest,
    model: MemoryModel,
    max_iterations: int = 100_000,
    backend_factory: BackendFactory | None = None,
) -> CommitPointResult:
    """Check the test with the lazy validation baseline."""
    start = time.perf_counter()
    miner = ReferenceSpecificationMiner(compiled)
    labels = compiled.observation_labels()
    validated = ObservationSet(labels=labels, method="commit-point")
    encoded = encode_test(compiled, model, backend_factory=backend_factory)
    solver_calls = 0
    counterexample = None
    passed = True
    for observation in encoded.observations():
        solver_calls += 1
        if not miner.contains(observation):
            counterexample = build_trace(encoded, "observation", labels)
            passed = False
            break
        validated.add(observation)
        if solver_calls >= max_iterations:
            break
    else:
        solver_calls += 1  # the final solve, which found nothing new
    return CommitPointResult(
        passed=passed,
        counterexample=counterexample,
        validated_observations=validated,
        solver_calls=solver_calls,
        total_seconds=time.perf_counter() - start,
    )
