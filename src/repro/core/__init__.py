"""The checker itself: specification mining, inclusion check, counterexamples."""

from repro.core.checker import CheckOptions
from repro.core.commitpoint import CommitPointResult, run_commit_point_check
from repro.core.counterexample import CounterexampleTrace, TraceStep, build_trace
from repro.core.inclusion import (
    InclusionOutcome,
    run_assertion_check,
    run_inclusion_check,
)
from repro.core.loop_bounds import LoopBoundResult, refine_loop_bounds
from repro.core.results import CheckResult, CheckStatistics
from repro.core.session import CheckSession
from repro.core.specification import (
    ObservationSet,
    ReferenceSpecificationMiner,
    SatSpecificationMiner,
    SpecificationError,
    mine_specification,
)

__all__ = [
    "CheckOptions",
    "CommitPointResult",
    "run_commit_point_check",
    "CounterexampleTrace",
    "TraceStep",
    "build_trace",
    "InclusionOutcome",
    "run_assertion_check",
    "run_inclusion_check",
    "LoopBoundResult",
    "refine_loop_bounds",
    "CheckResult",
    "CheckStatistics",
    "CheckSession",
    "ObservationSet",
    "ReferenceSpecificationMiner",
    "SatSpecificationMiner",
    "SpecificationError",
    "mine_specification",
]
