"""The inclusion check (Section 3.2, "Inclusion check").

Given a mined observation set ``S`` and a memory model ``Y``, the check asks
the SAT solver one question: is there an execution of the test under ``Y``
that fails an ``assert`` in the implementation code (this is how the
non-memory-model bugs of Section 4.1 surface) or whose observation is not
in ``S``?  UNSAT means no assertion can fail and every execution is
observationally equivalent to a serial one; a model is a counterexample,
of the assertion kind when it fails an assertion and of the observation
kind otherwise.
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
    """Result of one inclusion check."""

    passed: bool
    counterexample: CounterexampleTrace | None
    solve_seconds: float


def run_inclusion_check(
    compiled: CompiledTest,
    model: MemoryModel,
    specification: ObservationSet,
    encoded: EncodedTest | None = None,
    backend_factory: BackendFactory | None = None,
) -> InclusionOutcome:
    """Check that no ``assert`` can fail and ``obs(E_{T,I,Y}) ⊆ S``;
    returns a counterexample if either does not hold.

    The constraint (:meth:`EncodedTest.require_not_in`) is added as
    permanent clauses — deliberately, because root-level clauses propagate
    much more strongly than guard-literal variants.  The encoded test is
    contaminated afterwards: no other query may run on it again.  For a
    fully reusable formula use :meth:`EncodedTest.not_in_guard` and solve
    under the guard assumption instead.
    """
    if encoded is None:
        encoded = encode_test(compiled, model, backend_factory=backend_factory)
    encoded.require_not_in(specification.observations)
    start = time.perf_counter()
    satisfiable = encoded.solve()
    elapsed = time.perf_counter() - start
    if not satisfiable:
        return InclusionOutcome(True, None, elapsed)
    held = encoded.current_values(handle for handle, _ in encoded.assertions)
    kind = "observation" if all(held.values()) else "assertion"
    trace = build_trace(encoded, kind, specification.labels)
    return InclusionOutcome(False, trace, elapsed)


def run_assertion_check(*args, **kwargs) -> InclusionOutcome:
    """Gone: :func:`run_inclusion_check` asks whether an ``assert`` can
    fail in the same solve.  The name stays only because the ``LAYERS``
    table of ``perfbench/tracer.py`` wraps it; nothing calls it.  ROADMAP
    item 2 deletes it together with that tracer row."""
    raise NotImplementedError(
        "the assertion query is part of run_inclusion_check"
    )
