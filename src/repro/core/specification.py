"""Specification mining: computing the observation set ``S_{T,I}``.

The specification of a test is the set of observation vectors produced by
*serial* executions (atomic, interleaved operations).  Two miners are
provided, mirroring Section 3.2 and the "refset" data points of Fig. 11a:

* :class:`SatSpecificationMiner` — the paper's iterative procedure: solve the
  Seriality-model formula, record the observation, add a blocking clause,
  repeat until UNSAT.
* :class:`ReferenceSpecificationMiner` — runs a small sequential Python
  reference implementation over every serial order of the operations and
  every argument choice, in one depth-first walk that expands each serial
  state (thread progress plus reference contents) once.  This is the fast
  path the paper recommends for practice ("we can often compute observation
  sets much more efficiently by using a small, fast reference
  implementation").
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

from repro.core import limits
from repro.encoding.formula import EncodedTest, encode_test
from repro.encoding.testprogram import CompiledTest
from repro.lsl.program import Invocation
from repro.memorymodel.base import SERIAL
from repro.sat.backend import BackendFactory


@dataclass
class ObservationSet:
    """The mined specification: a set of observation vectors plus metadata."""

    labels: list[str]
    observations: set[tuple[int, ...]] = field(default_factory=set)
    mining_seconds: float = 0.0
    method: str = "reference"
    solver_iterations: int = 0

    def __contains__(self, observation: tuple[int, ...]) -> bool:
        return observation in self.observations

    def __len__(self) -> int:
        return len(self.observations)

    def add(self, observation: tuple[int, ...]) -> None:
        self.observations.add(observation)

    def describe(self, observation: tuple[int, ...]) -> str:
        parts = [
            f"{label}={value}" for label, value in zip(self.labels, observation)
        ]
        return ", ".join(parts)


class SpecificationError(RuntimeError):
    """The specification could not be mined (bad reference, no serial runs)."""


class SatSpecificationMiner:
    """Mines the observation set with the SAT back-end (Seriality model)."""

    def __init__(
        self,
        compiled: CompiledTest,
        max_observations: int = 100_000,
        backend_factory: BackendFactory | None = None,
    ):
        self.compiled = compiled
        self.max_observations = max_observations
        self.backend_factory = backend_factory

    def mine(self) -> ObservationSet:
        start = time.perf_counter()
        # One incremental backend serves the whole blocking-clause loop:
        # learned clauses survive across the repeated solve() calls.
        encoded: EncodedTest = encode_test(
            self.compiled, SERIAL, backend_factory=self.backend_factory
        )
        spec = ObservationSet(
            labels=self.compiled.observation_labels(), method="sat"
        )
        solves = 0
        for observation in encoded.observations():
            solves += 1
            spec.add(observation)
            if solves >= self.max_observations:
                break
            # The solve itself polls inside the backend; this covers the
            # decode/block bookkeeping between iterations of a long
            # enumeration.
            limits.check_deadline()
        else:
            solves += 1  # the final solve, which found nothing new
        spec.solver_iterations = solves
        spec.mining_seconds = time.perf_counter() - start
        return spec


class ReferenceSpecificationMiner:
    """Mines the observation set from serial runs of a reference
    implementation, in one memoized depth-first walk.

    A walk state is how far the init sequence and each thread have run plus
    the reference object's exact contents (its ``key()``).  Every state is
    expanded once: the walk memoizes, per state, the observations of the
    operations still to run.
    """

    def __init__(self, compiled: CompiledTest) -> None:
        if compiled.implementation.reference is None:
            raise SpecificationError(
                f"implementation {compiled.implementation.name!r} has no "
                "reference implementation"
            )
        self.compiled = compiled
        self._mined: ObservationSet | None = None

    # --------------------------------------------------------------- public

    def mine(self) -> ObservationSet:
        start = time.perf_counter()
        test = self.compiled.test
        # The init sequence is sequence 0 and runs alone before the threads.
        # Its slots, then each thread's in turn, make up the vector.
        sequences = [test.init, *test.threads]
        operation = self.compiled.implementation.operation
        # tail[s][p]: the slots of sequence s's operations from position p on.
        tail = [
            [
                sum(operation(inv.operation).num_observables
                    for inv in sequence[p:])
                for p in range(len(sequence) + 1)
            ]
            for sequence in sequences
        ]
        done = tuple(len(sequence) for sequence in sequences)
        # The memo is a local of this call, passed down the walk: nothing
        # refers to it once mine() returns or a deadline interrupts it.
        memo: dict[tuple, set[tuple[int, ...]]] = {}
        walk = (sequences, tail, done, memo)
        reference = self.compiled.implementation.reference()
        spec = ObservationSet(
            labels=self.compiled.observation_labels(),
            observations=self._suffixes(
                walk, (0,) * len(sequences), reference
            ),
            method="reference",
        )
        spec.mining_seconds = time.perf_counter() - start
        return spec

    def contains(self, observation: tuple[int, ...]) -> bool:
        """Membership in the mined set (mined on the first call)."""
        if self._mined is None:
            self._mined = self.mine()
        return observation in self._mined

    # ------------------------------------------------------------ internals

    def _suffixes(
        self, walk: tuple, progress: tuple[int, ...], reference
    ) -> set[tuple[int, ...]]:
        """Observations of the operations still to run from this state,
        each laid out in vector order.  ``walk`` is ``(sequences, tail,
        done, memo)`` of the :meth:`mine` call."""
        sequences, tail, done, memo = walk
        if progress == done:
            return {()}
        key = (progress, reference.key())
        found = memo.get(key)
        if found is not None:
            return found
        limits.check_deadline()
        found = set()
        # The remaining operations of the sequences before s come first
        # in every suffix, so sequence s's next operation goes after them.
        offset = 0
        for s, sequence in enumerate(sequences):
            position = progress[s]
            if position < len(sequence):
                after = progress[:s] + (position + 1,) + progress[s + 1:]
                for observables, successor in self._step(
                    sequence[position], reference
                ):
                    for rest in self._suffixes(walk, after, successor):
                        found.add(rest[:offset] + observables + rest[offset:])
                if s == 0:
                    break  # init runs alone, before any thread
            offset += tail[s][position]
        memo[key] = found
        return found

    def _step(self, invocation: Invocation, reference):
        """Yield ``(observables, successor)`` for every argument choice of
        ``invocation`` run on a copy of ``reference``."""
        spec = self.compiled.implementation.operation(invocation.operation)
        domains = []
        for index in range(spec.num_value_args):
            provided = (
                invocation.args[index] if index < len(invocation.args) else None
            )
            domains.append(
                invocation.choice_domain if provided is None else (provided,)
            )
        for args in itertools.product(*domains):
            successor = reference.copy()
            method = getattr(successor, invocation.operation, None)
            if method is None:
                raise SpecificationError(
                    f"reference for {self.compiled.implementation.name!r} has "
                    f"no operation {invocation.operation!r}"
                )
            observables = args + _normalize_result(method(*args))
            if len(observables) != spec.num_observables:
                raise SpecificationError(
                    f"reference operation {invocation.operation!r} produced "
                    f"{len(observables)} observables, expected "
                    f"{spec.num_observables}"
                )
            yield observables, successor


def _normalize_result(result) -> tuple[int, ...]:
    if result is None:
        return ()
    if isinstance(result, tuple):
        return tuple(int(x) for x in result)
    return (int(result),)


def mine_specification(
    compiled: CompiledTest,
    method: str = "auto",
    backend_factory: BackendFactory | None = None,
) -> ObservationSet:
    """Mine the observation set with the requested method.

    ``auto`` uses the reference implementation when available and falls back
    to the SAT miner otherwise.
    """
    if method == "auto":
        method = (
            "reference" if compiled.implementation.reference is not None else "sat"
        )
    if method == "reference":
        return ReferenceSpecificationMiner(compiled).mine()
    if method == "sat":
        return SatSpecificationMiner(
            compiled, backend_factory=backend_factory
        ).mine()
    raise ValueError(f"unknown specification mining method {method!r}")
