"""Assembling the combined formula ``Phi = Theta AND /\\_k Delta_k``.

:func:`encode_test` symbolically executes every thread of a compiled test,
adds the memory-model constraints for the chosen model, and returns an
:class:`EncodedTest` that the checker drives: it exposes the observation
slots (argument/return values), supports adding blocking clauses
incrementally (specification mining) and "not in the observation set"
constraints (inclusion check), and decodes SAT models back into execution
traces.

The build is split along the paper's own formula structure.  The
``/\\_k Delta_k`` half — symbolic execution of every thread, observation
slots, assertions, overflow handles, and their Tseitin lowering — depends
only on the compiled test, never on the memory model, so it is built once
per :class:`CompiledTest` as an :class:`EncodingSkeleton` and memoized on
the compiled test itself.  Each per-model encode then *forks* the skeleton
(an array-level CNF snapshot plus shallow circuit/dict copies) and runs
only ``Theta`` — the :class:`repro.encoding.memory.MemoryModelEncoder`
layer — on top.  The model-independent facts of ``Theta`` (the
:class:`repro.encoding.memory.AccessTable` and the equality terms built
from it) live on the skeleton too, so a five-model sweep executes symbolic
execution, base lowering and access analysis once instead of five times.
A per-model layer on a reused skeleton builds exactly the formula it would
build on a freshly compiled one (``tests/encoding/test_share_equivalence.py``).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, fields

from repro.encoding.memory import (
    AccessTable,
    MemoryModelEncoder,
    MemoryOrderEncoding,
)
from repro.encoding.symbolic import (
    EncodingError,
    MemoryAccess,
    ThreadEncoding,
    ThreadSymbolicExecutor,
)
from repro.encoding.testprogram import INIT_THREAD, CompiledInvocation, CompiledTest
from repro.lsl.instructions import Alloc
from repro.lsl.values import is_undef
from repro.memorymodel.base import MemoryModel
from repro.sat.backend import BackendFactory, SolverBackend, make_backend_factory
from repro.sat.bitvec import BitVec, BitVecBuilder
from repro.sat.circuit import Circuit, CnfLowering
from repro.sat.simplify import ENUMERATION_MIN_CLAUSES, SimplifyingBackend


class EncodingContext:
    """Shared state while building the formula for one (test, model) pair."""

    def __init__(self, compiled: CompiledTest) -> None:
        self.compiled = compiled
        self.circuit = Circuit()
        self.bvb = BitVecBuilder(self.circuit)
        self.lowering = CnfLowering(self.circuit)
        self.layout = compiled.layout
        self.ranges = compiled.ranges
        self.allocation = compiled.allocation
        self.width = max(compiled.ranges.width(), 1)
        self._access_counter = 0
        self._atomic_counter = 0
        self._initial_values: dict[int, BitVec] = {}
        self._heap_policies: dict[int, str] = {}
        #: Selector variables of candidate fences, by candidate label.  One
        #: variable per label, shared by every dynamic fence instance that
        #: carries it (inlining/unrolling duplicates the statement but not
        #: the label).
        self.fence_selectors: dict[str, int] = {}
        # Model-independent terms, shared across per-model layers: address
        # equality by unordered access-index pair and the initial-value term
        # of each load.  Prewarmed by the skeleton build so no memory model
        # pays to reconstruct them.
        self._addr_eq: dict[tuple[int, int], int] = {}
        self._init_terms: dict[int, int] = {}

    # -------------------------------------------------------------- snapshot

    def fork(self) -> "EncodingContext":
        """An independent continuation of this context.

        Circuit handles minted before the fork stay valid in the copy, and
        the CNF snapshot is an array-level memcpy, so a per-model encoding
        layer can grow on the fork without disturbing the shared skeleton.
        """
        out = EncodingContext.__new__(EncodingContext)
        out.compiled = self.compiled
        out.circuit = self.circuit.copy()
        out.bvb = BitVecBuilder(out.circuit)
        out.lowering = self.lowering.fork(out.circuit)
        out.layout = self.layout
        out.ranges = self.ranges
        out.allocation = self.allocation
        out.width = self.width
        out._access_counter = self._access_counter
        out._atomic_counter = self._atomic_counter
        out._initial_values = dict(self._initial_values)
        out._heap_policies = dict(self._heap_policies)
        out.fence_selectors = dict(self.fence_selectors)
        out._addr_eq = dict(self._addr_eq)
        out._init_terms = dict(self._init_terms)
        return out

    # ------------------------------------------------------------- plumbing

    def assert_true(self, handle: int) -> None:
        self.lowering.assert_true(handle)

    def assert_clause(self, handles) -> None:
        self.lowering.assert_clause(list(handles))

    def fresh_value(self, name: str) -> BitVec:
        return self.bvb.fresh(self.width, name)

    def const_value(self, value: int) -> BitVec:
        if value >= (1 << self.width):
            raise EncodingError(
                f"constant {value} does not fit in {self.width} bits; "
                "range analysis may be disabled with too small a width"
            )
        return self.bvb.const(value, self.width)

    def new_access_index(self) -> int:
        self._access_counter += 1
        return self._access_counter

    def new_atomic_group(self) -> int:
        self._atomic_counter += 1
        return self._atomic_counter

    def register_allocation(self, stmt: Alloc, base: int) -> None:
        """Record the initialization policy of a heap object's cells."""
        for offset in range(max(1, stmt.num_cells)):
            self._heap_policies.setdefault(base + offset, stmt.init)

    def fence_selector(self, label: str) -> int:
        """The selector variable of a candidate fence (minted on first use)."""
        handle = self.fence_selectors.get(label)
        if handle is None:
            handle = self.circuit.var(f"fence_sel[{label}]")
            self.fence_selectors[label] = handle
        return handle

    # -------------------------------------------------------- initial values

    def initial_value(self, location: int) -> BitVec:
        """Symbolic initial value ``i(a)`` of a memory location."""
        cached = self._initial_values.get(location)
        if cached is not None:
            return cached
        info = self.layout.info(location)
        if not is_undef(info.initial):
            value = self.const_value(int(info.initial))
        else:
            policy = self._heap_policies.get(location, "havoc")
            if policy == "zero":
                value = self.const_value(0)
            else:
                value = self.fresh_value(f"init_loc{location}")
                domain = self.ranges.location_domain(location)
                if domain is not None:
                    valid = [v for v in sorted(domain) if v < (1 << self.width)]
                    if valid:
                        self.assert_true(
                            self.circuit.or_many(
                                self.bvb.eq_const(value, v) for v in valid
                            )
                        )
        self._initial_values[location] = value
        return value

    # ----------------------------------------------- shared equality terms

    def addr_eq(self, first, second) -> int:
        """Address-equality handle of an access pair (model-independent;
        ``eq`` is structurally symmetric, so the pair is keyed unordered)."""
        if first.index < second.index:
            key = (first.index, second.index)
        else:
            key = (second.index, first.index)
        cached = self._addr_eq.get(key)
        if cached is None:
            cached = self.bvb.eq(first.addr, second.addr)
            self._addr_eq[key] = cached
        return cached

    def initial_value_term(self, load) -> int:
        """The "load reads the initial value of its address" disjunct of the
        value axiom — model-independent, so built once per load."""
        cached = self._init_terms.get(load.index)
        if cached is not None:
            return cached
        circuit = self.circuit
        bvb = self.bvb
        if load.addr_candidates is None:
            locations = sorted(self.layout.valid_indices())
        else:
            locations = sorted(l for l in load.addr_candidates if l != 0)
        terms = []
        for location in locations:
            terms.append(
                circuit.and_(
                    bvb.eq_const(load.addr, location),
                    bvb.eq(load.value, self.initial_value(location)),
                )
            )
        term = circuit.or_many(terms)
        self._init_terms[load.index] = term
        return term


@dataclass
class ObservationSlot:
    """One observable value (an argument or return value of an invocation)."""

    label: str
    invocation: CompiledInvocation
    value: BitVec


@dataclass
class EncodingStatistics:
    """Size and timing information reported in Fig. 10.

    The ``order_*`` / ``transitivity_clauses`` counters describe the memory
    order relation: how many access pairs exist, how many were statically
    resolved (constant-folded, no variable), how many got a SAT variable,
    and how many transitivity clauses were asserted.  ``value_clauses``
    counts the clauses the layer's value axioms emitted.
    """

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    accesses: int = 0
    cnf_variables: int = 0
    cnf_clauses: int = 0
    #: Total encode wall-clock paid by *this* call: skeleton + layer.
    encode_seconds: float = 0.0
    #: Time spent building the model-independent skeleton in this call
    #: (0.0 when a memoized skeleton was reused).
    skeleton_seconds: float = 0.0
    #: Time spent forking the skeleton and running the per-model layer.
    layer_seconds: float = 0.0
    #: True when a previously built skeleton was reused.
    skeleton_shared: bool = False
    order_pairs: int = 0
    order_vars: int = 0
    order_pairs_static: int = 0
    transitivity_clauses: int = 0
    value_clauses: int = 0

    def order_dict(self) -> dict:
        """The encoding's size counters (every integer field: the Fig. 10
        size columns and the order-encoding counters), for benchmark JSON
        output; the fields a subclass adds are not part of it."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(EncodingStatistics)
            if type(f.default) is int
        }


class EncodedTest:
    """The formula for one (implementation, test, memory model) triple."""

    def __init__(
        self,
        context: EncodingContext,
        model: MemoryModel,
        threads: list[ThreadEncoding],
        order: MemoryOrderEncoding,
        observation_slots: list[ObservationSlot],
        assertions: list[tuple[int, str]],
        overflow_handles: dict[str, int],
        stats: EncodingStatistics,
        backend_factory: BackendFactory | None = None,
    ) -> None:
        self.ctx = context
        self.model = model
        self.threads = threads
        self.order = order
        self.observation_slots = observation_slots
        self.assertions = assertions
        self.overflow_handles = overflow_handles
        self.stats = stats
        #: Builds the solver stack on first use (see
        #: :func:`repro.sat.backend.make_backend_factory`); the default
        #: resolves ``CHECKFENCE_SOLVER`` and ``CHECKFENCE_SIMPLIFY``.
        self.backend_factory = backend_factory or make_backend_factory()
        self._backend: SolverBackend | None = None
        self._synced_clauses = 0
        self._not_in_guards: dict[frozenset, int] = {}
        #: Assumption literal -> circuit handle of the most recent solve,
        #: for mapping failed-assumption cores back to handles.
        self._assumed_handles: dict[int, int] = {}
        #: Per-slot observation bit plan (constants and CNF literals),
        #: built lazily for the projected enumeration paths.
        self._obs_plan: list[list[bool | int]] | None = None

    # ------------------------------------------------------------ solver use

    @property
    def cnf(self):
        return self.ctx.lowering.cnf

    @property
    def fence_selectors(self) -> dict[str, int]:
        """Candidate-fence selector variables by label (see
        :meth:`EncodingContext.fence_selector`)."""
        return self.ctx.fence_selectors

    def _ensure_backend(self) -> SolverBackend:
        if self._backend is None:
            backend = self.backend_factory()
            # The frozen set must be in place before any clause reaches a
            # preprocessing backend (the others ignore it); computing it is
            # a non-forcing peek and never grows the formula.
            backend.freeze(self.frozen_variables())
            self._backend = backend
        cnf = self.cnf
        self._backend.ensure_vars(cnf.num_vars)
        if self._synced_clauses < len(cnf):
            # The backend reads the new clauses straight out of the CNF's
            # buffers (the native kernel without copying them).
            self._backend.add_cnf(cnf, self._synced_clauses)
            self._synced_clauses = len(cnf)
        return self._backend

    def frozen_variables(self) -> set[int]:
        """CNF variables the pipeline mentions *after* the first solve, so
        the preprocessor must not eliminate or substitute them away:

        * observation-slot bits (projected blocking clauses and the
          observation decoding of every mined outcome),
        * assertion and overflow handles (assumption terms are built over
          them lazily),
        * already-minted ``not_in_guard`` guard literals (guards created
          later are fresh variables and need no protection), and
        * the constant-TRUE variable.

        Memory-order variables and reads-from selectors are deliberately
        *not* frozen: no later clause or assumption is ever built over
        them, and counterexample decoding reads them out of the
        *reconstructed* model, which the elimination stack rebuilds to
        satisfy every original clause (including the order and value
        axioms).  Leaving them eliminable is what lets the preprocessor cut
        the order-axiom-heavy formulas (e.g. msn/Tpc6) by half instead of
        15%.

        Only *already-lowered* nodes contribute (a non-forcing peek, so
        computing the set never grows the formula); anything lowered later
        that touches an eliminated variable is caught by the
        preprocessor's reinstatement path instead.
        """
        lowered = self.ctx.lowering.lowered_var
        frozen: set[int] = set()
        handles: list[int] = [Circuit.TRUE]
        for slot in self.observation_slots:
            handles.extend(slot.value.bits)
        handles.extend(handle for handle, _ in self.assertions)
        handles.extend(self.overflow_handles.values())
        handles.extend(self._not_in_guards.values())
        handles.extend(self.fence_selectors.values())
        for handle in handles:
            var = lowered(handle)
            if var is not None:
                frozen.add(var)
        return frozen

    def expect_enumeration(self) -> None:
        """Hint that this formula feeds a solve/block enumeration loop
        (outcome mining), so one preprocessing pass will amortize over
        many solves: lowers the preprocessor's engagement threshold.
        Must be called before the first solve to have an effect; a no-op
        when simplification is off or the backend already decided."""
        backend = self._ensure_backend()
        if isinstance(backend, SimplifyingBackend):
            backend.min_clauses = min(
                backend.min_clauses, ENUMERATION_MIN_CLAUSES
            )

    def observations(self):
        """The reachable observation vectors, by solve -> decode -> yield
        -> block until a solve is not SAT.  An observation is blocked only
        when the next one is asked for, so a caller that stops early still
        reads the last model; caps and deadline polls are the caller's."""
        self.expect_enumeration()
        while self.solve():
            observation = self.decode_current_observation()
            yield observation
            self.block_observation(observation)

    def solve(self, assumptions=()):
        """Solve the current formula; returns True/False (or None on limit).

        Lowering an assumption handle can itself append the Tseitin clauses
        of a not-yet-lowered node, so the backend is synced *after* the
        assumptions are lowered — an assumption literal must never reach
        the solver ahead of the clauses that define it.  The sync before
        lowering is belt-and-braces (lowering never reads the backend); it
        keeps the invariant "the backend is behind only by what this call
        just lowered", which the regression tests pin.
        """
        self._ensure_backend()
        assumption_lits = [self.ctx.lowering.literal(h) for h in assumptions]
        self._assumed_handles = dict(zip(assumption_lits, assumptions))
        backend = self._ensure_backend()
        return backend.solve(assumptions=assumption_lits)

    def failed_assumption_handles(self) -> list[int]:
        """The failed-assumption core of the last (UNSAT) solve, mapped back
        to the circuit handles that were passed to :meth:`solve`.  Empty
        after a SAT solve, or when the formula alone is unsatisfiable."""
        if self._backend is None:
            return []
        return [
            self._assumed_handles[lit]
            for lit in self._backend.failed_assumptions()
            if lit in self._assumed_handles
        ]

    def model_values(self) -> dict[int, bool]:
        if self._backend is None:
            raise RuntimeError("solve() has not produced a model yet")
        return self._backend.model()

    @property
    def solver_stats(self):
        return self._backend.stats() if self._backend else None

    @property
    def backend_name(self) -> str | None:
        """Name of the backend once one has been instantiated."""
        return self._backend.name if self._backend else None

    # ---------------------------------------------------------- observations

    def observation_equals(self, observation: tuple[int, ...]) -> list[int]:
        """Per-slot equality handles between the symbolic observation and a
        concrete observation vector."""
        if len(observation) != len(self.observation_slots):
            raise ValueError("observation arity mismatch")
        return [
            self.ctx.bvb.eq_const(slot.value, value)
            for slot, value in zip(self.observation_slots, observation)
        ]

    def _observation_bit_plan(self) -> list[list[bool | int]]:
        """Per-slot observation bits as constants (bool) or CNF literals.

        This is the *projection*: every blocking clause and every decoded
        outcome is expressed over exactly these literals, so the
        enumeration loops never touch the non-observable part of the
        formula."""
        if self._obs_plan is None:
            literal = self.ctx.lowering.literal
            plan: list[list[bool | int]] = []
            for slot in self.observation_slots:
                bits: list[bool | int] = []
                for bit in slot.value.bits:
                    if abs(bit) == Circuit.TRUE:
                        bits.append(bit > 0)
                    else:
                        bits.append(literal(bit))
                plan.append(bits)
            self._obs_plan = plan
        return self._obs_plan

    def projected_blocking_clause(
        self, observation: tuple[int, ...]
    ) -> list[int] | None:
        """The clause (over observation literals only) satisfied exactly by
        executions whose observation *differs* from ``observation``.

        Returns ``None`` when no execution can produce the observation at
        all (a constant bit mismatches, or a value exceeds its slot width)
        — blocking it would be a tautology.  Unlike the circuit route this
        mints no Tseitin variables, so a solve/block enumeration loop grows
        the formula by one pure clause per outcome.
        """
        plan = self._observation_bit_plan()
        if len(observation) != len(plan):
            raise ValueError("observation arity mismatch")
        literals: list[int] = []
        for bits, value in zip(plan, observation):
            if value >> len(bits):
                return None  # value does not fit the slot: unreachable
            for position, bit in enumerate(bits):
                want = (value >> position) & 1
                if isinstance(bit, bool):
                    if bit != bool(want):
                        return None  # constant bit mismatch: unreachable
                    continue
                literals.append(-bit if want else bit)
        return literals

    def block_observation(self, observation: tuple[int, ...]) -> None:
        """Exclude executions whose observation equals the given one.

        The blocking clause is *projected*: it mentions observation-slot
        literals only (no fresh variables), which keeps the incremental
        solver state small during outcome mining and lets the preprocessor
        map it against the live simplified state."""
        literals = self.projected_blocking_clause(observation)
        if literals is None:
            return  # no execution matches; nothing to block
        self.cnf.add_clause(literals)

    def require_not_in(self, observations) -> None:
        """Constrain the observation to differ from every element of a set."""
        for observation in observations:
            self.block_observation(observation)

    def not_in_guard(self, observations) -> int:
        """A guard handle that, when assumed, excludes every observation in
        the given set.

        Unlike :meth:`require_not_in` the constraint is inert unless the
        returned handle is passed as an assumption, so the same encoded test
        (and its learned clauses) can serve the assertion query, the
        inclusion query, and later re-checks without the blocking clauses of
        one query leaking into another.  The guarded clauses are emitted only
        once per distinct observation set, and are projected over the guard
        literal plus observation literals only.
        """
        key = frozenset(observations)
        cached = self._not_in_guards.get(key)
        if cached is not None:
            return cached
        guard = self.ctx.circuit.var(f"not_in_guard{len(self._not_in_guards)}")
        guard_literal = self.ctx.lowering.literal(guard)
        for observation in observations:
            literals = self.projected_blocking_clause(observation)
            if literals is None:
                continue  # unreachable observation: guard need not block it
            self.cnf.add_clause([-guard_literal] + literals)
        self._not_in_guards[key] = guard
        return guard

    def decode_observation(self, model: dict[int, bool]) -> tuple[int, ...]:
        return tuple(
            self._decode_vec(slot.value, model) for slot in self.observation_slots
        )

    def decode_current_observation(self) -> tuple[int, ...]:
        """The observation vector of the most recent SAT result, read
        through the backend's narrow :meth:`values_of` accessor instead of
        materializing the full model dict — the hot path of the
        solve/block outcome-enumeration loops."""
        if self._backend is None:
            raise RuntimeError("solve() has not produced a model yet")
        plan = self._observation_bit_plan()
        wanted = {
            abs(bit) for bits in plan for bit in bits
            if not isinstance(bit, bool)
        }
        values = self._backend.values_of(wanted)
        out: list[int] = []
        for bits in plan:
            value = 0
            for position, bit in enumerate(bits):
                if isinstance(bit, bool):
                    bit_value = bit
                else:
                    raw = values.get(abs(bit), False)
                    bit_value = raw if bit > 0 else not raw
                if bit_value:
                    value |= 1 << position
            out.append(value)
        return tuple(out)

    # ------------------------------------------------------------- decoding

    def _evaluate(self, handle: int, model: dict[int, bool]) -> bool:
        return self.ctx.lowering.evaluate(handle, model)

    def _decode_vec(self, vec: BitVec, model: dict[int, bool]) -> int:
        return BitVecBuilder.decode(vec, lambda h: self._evaluate(h, model))

    def decode_access(self, access: MemoryAccess, model: dict[int, bool]) -> dict:
        return {
            "label": access.label,
            "kind": access.kind,
            "thread": access.thread,
            "invocation": access.invocation,
            "executed": self._evaluate(access.guard, model),
            "address": self._decode_vec(access.addr, model),
            "value": self._decode_vec(access.value, model),
        }

    def decode_memory_order(self, model: dict[int, bool]) -> list[MemoryAccess]:
        """The executed accesses in a linear extension of the memory order.

        Under the pruned encoding some pairs carry no order information at
        all (they were proven order-irrelevant), so the model only fixes a
        partial order; a deterministic topological sort (ties broken by
        access position) produces a total order consistent with it.
        """
        accesses = self.order.accesses
        positions = [
            p for p, a in enumerate(accesses)
            if self._evaluate(a.guard, model)
        ]
        executed = [accesses[p] for p in positions]
        count = len(executed)
        successors: list[list[int]] = [[] for _ in range(count)]
        indegree = [0] * count
        for x in range(count):
            for y in range(x + 1, count):
                handle = self.order.resolved(positions[x], positions[y])
                if handle is None:
                    continue
                if self._evaluate(handle, model):
                    successors[x].append(y)
                    indegree[y] += 1
                else:
                    successors[y].append(x)
                    indegree[x] += 1
        ready = [x for x in range(count) if indegree[x] == 0]
        heapq.heapify(ready)
        result: list[MemoryAccess] = []
        while ready:
            x = heapq.heappop(ready)
            result.append(executed[x])
            for y in successors[x]:
                indegree[y] -= 1
                if indegree[y] == 0:
                    heapq.heappush(ready, y)
        if len(result) != count:  # pragma: no cover - encoding invariant
            raise RuntimeError("memory order of the model contains a cycle")
        return result

    def decode_sources(self, model: dict[int, bool]) -> dict[int, int | None]:
        """The store each load read, from its reads-from selectors: load
        position -> store position, or ``None`` for the initial value.
        Every load the model executes has exactly one entry."""
        out: dict[int, int | None] = {}
        for load, selectors in self.order.sources.items():
            for source, lit in selectors:
                if model.get(lit, False):
                    out[load] = source
                    break
        return out

    def violated_assertions(self, model: dict[int, bool]) -> list[str]:
        return [
            description
            for handle, description in self.assertions
            if not self._evaluate(handle, model)
        ]


@dataclass
class EncodingSkeleton:
    """The model-independent half of ``Phi`` for one compiled test.

    Holds the pristine :class:`EncodingContext` after symbolic execution of
    every thread, the observation slots / assertions / overflow handles,
    the base CNF with every thread formula already Tseitin-lowered, and the
    access table every memory-model layer reads.  Per-model layers must
    never mutate it: they run on :meth:`EncodingContext.fork` snapshots
    (see :func:`encode_test`).
    """

    compiled: CompiledTest
    context: EncodingContext
    threads: list[ThreadEncoding]
    observation_slots: list[ObservationSlot]
    assertions: list[tuple[int, str]]
    overflow_handles: dict[str, int]
    table: AccessTable
    build_seconds: float = 0.0


#: Attribute under which a compiled test memoizes its skeleton.  Storing it
#: on the object (rather than a module-level map) ties the skeleton's
#: lifetime to the compiled test: session caches keep it warm, fuzz
#: campaigns drop it with the program.  ``CompiledTest.__getstate__``
#: excludes it from pickling.
_SKELETON_ATTR = "_encoding_skeleton"


def skeleton_for(compiled: CompiledTest) -> tuple[EncodingSkeleton, bool]:
    """The memoized skeleton of a compiled test, building it on first use.

    Returns ``(skeleton, reused)`` where ``reused`` is True when a
    previously built skeleton was found.
    """
    skeleton = getattr(compiled, _SKELETON_ATTR, None)
    if skeleton is not None:
        return skeleton, True
    skeleton = build_skeleton(compiled)
    setattr(compiled, _SKELETON_ATTR, skeleton)
    return skeleton, False


def build_skeleton(compiled: CompiledTest) -> EncodingSkeleton:
    """Symbolically execute every thread and lower the base CNF."""
    start = time.perf_counter()
    context = EncodingContext(compiled)
    threads_by_index = compiled.threads()

    executors: dict[int, ThreadSymbolicExecutor] = {}
    thread_encodings: list[ThreadEncoding] = []
    observation_slots: list[ObservationSlot] = []
    assertions: list[tuple[int, str]] = []
    overflow_handles: dict[str, int] = {}

    for thread_index in sorted(threads_by_index):
        executor = ThreadSymbolicExecutor(context, thread_index)
        executors[thread_index] = executor
        for invocation in threads_by_index[thread_index]:
            executor.run_invocation(invocation.global_index, invocation.statements)
        thread_encodings.append(executor.encoding)
        assertions.extend(executor.encoding.assertions)

    # Observation slots, in test order (init invocations first).
    for invocation in compiled.invocations:
        executor = executors[invocation.thread]
        for label, reg in zip(
            invocation.observable_labels, invocation.observable_regs
        ):
            observation_slots.append(
                ObservationSlot(label, invocation, executor.register_value(reg))
            )
        for tag, flag_reg in invocation.overflow_registers.items():
            handle = -context.bvb.is_zero(executor.register_value(flag_reg))
            overflow_handles[f"{invocation.label}:{tag}"] = handle

    table = AccessTable(thread_encodings)
    prelower = _prewarm_shared_terms(context, table)
    _lower_base_cnf(
        context, thread_encodings, observation_slots, assertions,
        overflow_handles, prelower,
    )
    return EncodingSkeleton(
        compiled=compiled,
        context=context,
        threads=thread_encodings,
        observation_slots=observation_slots,
        assertions=assertions,
        overflow_handles=overflow_handles,
        table=table,
        build_seconds=time.perf_counter() - start,
    )


def _prewarm_shared_terms(
    context: EncodingContext, table: AccessTable
) -> list[int]:
    """Build the model-independent terms into the skeleton.

    Address equalities and initial-value terms are what the value and
    same-address axioms consume; constructing them here (into the context
    caches every fork inherits) means no per-model layer re-walks the
    bit-vector builders for them.  Only terms some model can actually
    reference are built: pairs the model-independent core order proves
    invisible (store after load under every model), init-thread pairs and
    atomic-block-internal pairs (statically ordered everywhere, so never
    compared symbolically) are skipped — prewarming is an optimization,
    and any term a future model does need is still built lazily on its
    fork.  Cross-thread store pairs never compare addresses at all: the
    <M-maximality clauses reuse the load's own visibility conjuncts.  Value
    equality needs no term: the value axioms compare the already-lowered
    value bits one by one under a reads-from selector.  The construction
    order fixes circuit numbering, hence every CNF.
    """
    # The same-thread (earlier, store) pairs of the same-address axiom
    # compare addresses symbolically — except on the init thread and inside
    # one atomic block, where every model orders them statically.  Pairs
    # whose comparison folds to a constant TRUE are static order edges
    # under every registered model and feed the core relation below.
    # Pairs already ordered by the fence/atomic/init core are built (so
    # every fork shares the construction) but not marked for pre-lowering:
    # the same-address axiom folds their order handle to TRUE and never
    # references the comparison.  Constant pairs go to table.const_edges.
    prelower: list[int] = []
    position = table.position
    core_reach = table.closure(table.core_successors)
    for first, second in table.same_thread_pairs:
        if first.thread == INIT_THREAD or not second.is_store:
            continue
        if (
            first.atomic_group is not None
            and first.atomic_group == second.atomic_group
        ):
            continue
        if table.may_alias(first, second):
            term = context.addr_eq(first, second)
            if term == Circuit.TRUE:
                table.const_edges.append((first, second))
            elif not (
                (core_reach[position[first.index]]
                 >> position[second.index]) & 1
            ):
                prelower.append(term)

    successors = list(table.core_successors)
    table.add_edges(successors, table.const_edges)
    reach = table.closure(successors)
    for load, stores in table.candidates:
        prelower.append(context.initial_value_term(load))
        load_reach = reach[position[load.index]]
        for store in stores:
            if (load_reach >> position[store.index]) & 1:
                continue  # store after load in every model: invisible
            prelower.append(context.addr_eq(load, store))
    return prelower


def _lower_base_cnf(
    context: EncodingContext,
    threads: list[ThreadEncoding],
    observation_slots: list[ObservationSlot],
    assertions: list[tuple[int, str]],
    overflow_handles: dict[str, int],
    prelower: list[int],
) -> None:
    """Tseitin-lower the model-independent formula into the base CNF.

    Every observable bit, assertion condition and overflow handle needs a
    SAT variable so models can always be decoded; every access guard,
    address and value bit is referenced by the value axioms of *every*
    memory model, so lowering their cones here emits the thread-formula
    clauses once instead of once per model.  Candidate-fence selectors are
    assumed (and appear in cores) after the first solve, so they too need
    CNF variables — and protection from the preprocessor — up front.
    """
    literal = context.lowering.literal
    for slot in observation_slots:
        for bit in slot.value.bits:
            literal(bit)
    for handle, _ in assertions:
        literal(handle)
    for handle in overflow_handles.values():
        literal(handle)
    for handle in context.fence_selectors.values():
        literal(handle)
    for thread in threads:
        for access in thread.accesses:
            literal(access.guard)
            for bit in access.addr.bits:
                literal(bit)
            for bit in access.value.bits:
                literal(bit)
        for fence in thread.fences:
            literal(fence.guard)
    # The prewarmed address-equality/initial-value cones marked for
    # pre-lowering are consumed by every model's axioms — their top gates
    # appear as literals of each layer's clauses — so lowering them (cone
    # and top gate) here emits exactly the Tseitin definitions every
    # per-model layer would otherwise re-derive.
    for handle in prelower:
        if abs(handle) != Circuit.TRUE:
            literal(handle)


def encode_test(
    compiled: CompiledTest,
    model: MemoryModel,
    backend_factory: BackendFactory | None = None,
) -> EncodedTest:
    """Build the formula ``Phi`` for a compiled test under a memory model.

    Reuses the memoized model-independent skeleton of the compiled test
    and runs only the per-model layer on a fork of it.  ``backend_factory``
    builds the solver stack on the first solve (default:
    :func:`repro.sat.backend.make_backend_factory` with no arguments).
    """
    skeleton, reused = skeleton_for(compiled)
    layer_start = time.perf_counter()
    # Fork even a freshly built skeleton: it must stay pristine for the
    # next model (and the next check after an inclusion query).
    context = skeleton.context.fork()

    encoder = MemoryModelEncoder(context, model, skeleton.table)
    order = encoder.encode()

    stats = EncodingStatistics()
    size = compiled.size_statistics()
    stats.instructions = size["instructions"]
    stats.loads = size["loads"]
    stats.stores = size["stores"]
    stats.accesses = len(order.accesses)
    stats.cnf_variables = context.lowering.cnf.num_vars
    stats.cnf_clauses = context.lowering.cnf.num_clauses
    stats.order_pairs = encoder.order_pair_count
    stats.order_vars = encoder.order_var_count
    stats.order_pairs_static = encoder.static_pair_count
    stats.transitivity_clauses = encoder.transitivity_clause_count
    stats.value_clauses = encoder.value_clause_count
    stats.skeleton_shared = reused
    stats.skeleton_seconds = 0.0 if reused else skeleton.build_seconds
    stats.layer_seconds = time.perf_counter() - layer_start
    stats.encode_seconds = stats.skeleton_seconds + stats.layer_seconds

    return EncodedTest(
        context=context,
        model=model,
        threads=skeleton.threads,
        order=order,
        observation_slots=skeleton.observation_slots,
        assertions=skeleton.assertions,
        overflow_handles=skeleton.overflow_handles,
        stats=stats,
        backend_factory=backend_factory,
    )
