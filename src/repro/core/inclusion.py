"""The inclusion check (Section 3.2, "Inclusion check").

Given a mined observation set ``S`` and a memory model ``Y``, the check asks
the SAT solver for an execution of the test under ``Y`` whose observation is
not in ``S``; a model is a counterexample, UNSAT means every execution is
observationally equivalent to a serial one.  A separate query searches for
executions that violate an ``assert`` in the implementation code (this is
how the non-memory-model bugs of Section 4.1 surface).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.counterexample import CounterexampleTrace, build_trace
from repro.core.specification import ObservationSet
from repro.encoding.formula import EncodedTest, encode_test
from repro.encoding.testprogram import CompiledTest
from repro.memorymodel.base import MemoryModel
from repro.sat.backend import BackendFactory


@dataclass
class InclusionOutcome:
    """Result of one inclusion (or assertion) query."""

    passed: bool
    counterexample: CounterexampleTrace | None
    solve_seconds: float
    encoded: EncodedTest


def run_inclusion_check(
    compiled: CompiledTest,
    model: MemoryModel,
    specification: ObservationSet,
    encoded: EncodedTest | None = None,
    backend_factory: BackendFactory | None = None,
) -> InclusionOutcome:
    """Check ``obs(E_{T,I,Y}) ⊆ S``; returns a counterexample if it fails.

    The "observation not in S" constraint is added as permanent clauses —
    deliberately, because root-level blocking clauses propagate much more
    strongly than guard-literal variants and the inclusion query is the last
    query of a check.  The encoded test is contaminated afterwards: no
    other query may run on it again.  For a fully reusable formula use
    :meth:`EncodedTest.not_in_guard` and solve under the guard assumption
    instead.
    """
    if encoded is None:
        encoded = encode_test(compiled, model, backend_factory=backend_factory)
    encoded.require_not_in(specification.observations)
    start = time.perf_counter()
    satisfiable = encoded.solve()
    elapsed = time.perf_counter() - start
    if not satisfiable:
        return InclusionOutcome(True, None, elapsed, encoded)
    trace = build_trace(encoded, "observation", specification.labels)
    return InclusionOutcome(False, trace, elapsed, encoded)


def assertion_violation(encoded: EncodedTest) -> int:
    """Circuit handle for "some ``assert`` statement fails"."""
    return encoded.ctx.circuit.or_many(
        -handle for handle, _ in encoded.assertions
    )


def run_assertion_check(
    compiled: CompiledTest,
    model: MemoryModel,
    labels: list[str],
    encoded: EncodedTest | None = None,
    backend_factory: BackendFactory | None = None,
) -> InclusionOutcome:
    """Search for an execution that violates an ``assert`` statement."""
    if encoded is None:
        encoded = encode_test(compiled, model, backend_factory=backend_factory)
    if not encoded.assertions:
        return InclusionOutcome(True, None, 0.0, encoded)
    start = time.perf_counter()
    satisfiable = encoded.solve(assumptions=[assertion_violation(encoded)])
    elapsed = time.perf_counter() - start
    if not satisfiable:
        return InclusionOutcome(True, None, elapsed, encoded)
    trace = build_trace(encoded, "assertion", labels)
    return InclusionOutcome(False, trace, elapsed, encoded)
