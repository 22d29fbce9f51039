"""Assembling the combined formula ``Phi = Theta AND /\\_k Delta_k``.

:func:`encode_test` symbolically executes every thread of a compiled test,
adds the memory-model constraints for the chosen model, and returns an
:class:`EncodedTest` that the checker drives: it exposes the observation
slots (argument/return values), supports adding blocking clauses
incrementally (specification mining) and "an assertion fails or the
observation is not in the set" constraints (inclusion check), and decodes
SAT models back into execution traces.

The formula lives in one literal space: the gate builder
(:class:`repro.sat.circuit.Circuit`) returns CNF literals and writes each
gate's Tseitin clauses when the gate is built, so every handle below (an
access guard, a value bit, an assertion, an observation bit) can go into a
clause, an assumption or a model lookup as it is.

The build is split along the paper's own formula structure.  The
``/\\_k Delta_k`` half — symbolic execution of every thread, observation
slots, assertions and overflow handles, with the clauses of their gates —
depends only on the compiled test, never on the memory model, so it is
built once per :class:`CompiledTest` as an :class:`EncodingSkeleton` and
memoized on the compiled test itself.  Each per-model encode then *forks*
the skeleton (an array-level CNF snapshot plus dict copies) and runs only
``Theta`` — the :class:`repro.encoding.memory.MemoryModelEncoder` layer —
on top.  The model-independent facts of ``Theta`` (the
:class:`repro.encoding.memory.AccessTable` and the equality terms built
from it) live on the skeleton too, so a five-model sweep executes symbolic
execution, the shared terms' clauses and access analysis once instead of
five times.
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
from repro.sat.circuit import Circuit


class EncodingContext:
    """Shared state while building the formula for one (test, model) pair.

    It keeps the compiled test's layout, ranges and allocation but not the
    compiled test itself: the skeleton memoized on the compiled test holds
    the pristine context, so a back reference would make a cycle that only
    the garbage collector frees.
    """

    def __init__(self, compiled: CompiledTest) -> None:
        self.circuit = Circuit()
        self.bvb = BitVecBuilder(self.circuit)
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

        Copies the gate builder (:meth:`repro.sat.circuit.Circuit.copy`):
        literals minted before the fork stay valid in the copy, and a
        per-model encoding layer can grow on the fork without disturbing
        the shared skeleton.
        """
        out = EncodingContext.__new__(EncodingContext)
        out.circuit = self.circuit.copy()
        out.bvb = BitVecBuilder(out.circuit)
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
        self.circuit.cnf.add_unit(handle)

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
        """The next access's index: accesses count 0, 1, ... in creation
        order, so an index is the access's position in the test's access
        list (:class:`repro.encoding.memory.AccessTable`)."""
        index = self._access_counter
        self._access_counter += 1
        return index

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
        compiled: CompiledTest,
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
        self.compiled = compiled
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
        #: resolves ``CHECKFENCE_SOLVER``.
        self.backend_factory = backend_factory or make_backend_factory()
        self._backend: SolverBackend | None = None
        self._synced_clauses = 0
        self._not_in_guards: dict[frozenset, int] = {}

    # ------------------------------------------------------------ solver use

    @property
    def cnf(self):
        return self.ctx.circuit.cnf

    @property
    def fence_selectors(self) -> dict[str, int]:
        """Candidate-fence selector variables by label (see
        :meth:`EncodingContext.fence_selector`)."""
        return self.ctx.fence_selectors

    def _ensure_backend(self) -> SolverBackend:
        if self._backend is None:
            self._backend = self.backend_factory()
        cnf = self.cnf
        self._backend.ensure_vars(cnf.num_vars)
        if self._synced_clauses < len(cnf):
            # The backend reads the new clauses straight out of the CNF's
            # buffers (the native kernel without copying them).
            self._backend.add_cnf(cnf, self._synced_clauses)
            self._synced_clauses = len(cnf)
        return self._backend

    def observations(self):
        """The reachable observation vectors, by solve -> decode -> yield
        -> block until a solve is not SAT.  An observation is blocked only
        when the next one is asked for, so a caller that stops early still
        reads the last model; caps and deadline polls are the caller's."""
        while self.solve():
            observation = self.decode_current_observation()
            yield observation
            self.block_observation(observation)

    def solve(self, assumptions=()) -> bool:
        """Solve the current formula under assumption literals: True (SAT)
        or False (UNSAT); a budget breach raises.

        A gate's clauses are written when the gate is built, so every
        clause an assumption depends on is already in the CNF: one sync at
        the start is enough.
        """
        return self._ensure_backend().solve(assumptions=list(assumptions))

    def failed_assumption_handles(self) -> list[int]:
        """The failed-assumption core of the last (UNSAT) solve: a subset of
        the literals passed to :meth:`solve`.  Empty after a SAT solve, or
        when the formula alone is unsatisfiable."""
        if self._backend is None:
            return []
        return self._backend.failed_assumptions()

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

    def projected_blocking_clause(
        self, observation: tuple[int, ...]
    ) -> list[int] | None:
        """The clause (over observation-slot bits only) satisfied exactly
        by executions whose observation *differs* from ``observation``.

        This is the *projection*: every blocking clause and every decoded
        outcome is expressed over the slot bits, so the enumeration loops
        never touch the non-observable part of the formula.  Returns
        ``None`` when no execution can produce the observation at all (a
        constant bit mismatches, or a value exceeds its slot width) —
        blocking it would be a tautology.  Unlike :meth:`observation_equals`
        this mints no gate, so a solve/block enumeration loop grows the
        formula by one pure clause per outcome.
        """
        if len(observation) != len(self.observation_slots):
            raise ValueError("observation arity mismatch")
        literals: list[int] = []
        for slot, value in zip(self.observation_slots, observation):
            bits = slot.value.bits
            if value >> len(bits):
                return None  # value does not fit the slot: unreachable
            for position, bit in enumerate(bits):
                want = (value >> position) & 1
                if abs(bit) == Circuit.TRUE:
                    if (bit > 0) != bool(want):
                        return None  # constant bit mismatch: unreachable
                    continue
                literals.append(-bit if want else bit)
        return literals

    def block_observation(self, observation: tuple[int, ...]) -> None:
        """Exclude executions whose observation equals the given one.

        The blocking clause is *projected*: it mentions observation-slot
        literals only (no fresh variables), which keeps the incremental
        solver state small during outcome mining."""
        literals = self.projected_blocking_clause(observation)
        if literals is None:
            return  # no execution matches; nothing to block
        self.cnf.add_clause(literals)

    def _assertion_violation(self) -> list[int]:
        """``[A]``, where A is "some ``assert`` fails" (the OR of the
        negated assertions), or ``[]`` when no assertion can fail, so that
        widening a clause by it leaves the formula of a test without
        ``assert`` byte-identical.  The circuit hash-conses the gate: it is
        built on the first call, and every later call returns it."""
        violation = self.ctx.circuit.or_many(
            -handle for handle, _ in self.assertions
        )
        return [] if violation == Circuit.FALSE else [violation]

    def _add_not_in(self, observations, prefix: list[int]) -> None:
        """One clause ``prefix | A | block(o)`` per observation o, in the
        set's sorted order, so the formula depends on what the set holds,
        not on how it was filled."""
        widened = prefix + self._assertion_violation()
        for observation in sorted(observations):
            literals = self.projected_blocking_clause(observation)
            if literals is not None:  # else unreachable: nothing to block
                self.cnf.add_clause(widened + literals)

    def require_not_in(self, observations) -> None:
        """Constrain the execution to fail an ``assert`` or to produce an
        observation outside a set: ``A | block(o)`` for each o in it, with
        A from :meth:`_assertion_violation`."""
        self._add_not_in(observations, [])

    def not_in_guard(self, observations) -> int:
        """A guard handle that, when assumed, imposes
        :meth:`require_not_in` on the given set.

        Unlike :meth:`require_not_in` the constraint is inert unless the
        returned handle is passed as an assumption, so the same encoded test
        (and its learned clauses) can serve several queries, such as fence
        synthesis's probes under different selector sets, without the
        clauses of one query leaking into another.  The guarded clauses
        ``-g | A | block(o)`` are emitted only once per distinct observation
        set.
        """
        key = frozenset(observations)
        cached = self._not_in_guards.get(key)
        if cached is not None:
            return cached
        guard = self.ctx.circuit.var(f"not_in_guard{len(self._not_in_guards)}")
        self._add_not_in(observations, [-guard])
        self._not_in_guards[key] = guard
        return guard

    def decode_observation(self, model: dict[int, bool]) -> tuple[int, ...]:
        return tuple(
            self._decode_vec(slot.value, model) for slot in self.observation_slots
        )

    def current_values(self, literals) -> dict[int, bool]:
        """The truth of each literal in the most recent SAT result, read
        through the backend's narrow :meth:`values_of` accessor instead of
        materializing the full model dict."""
        if self._backend is None:
            raise RuntimeError("solve() has not produced a model yet")
        literals = list(literals)
        values = self._backend.values_of({abs(lit) for lit in literals})
        return {
            lit: values.get(abs(lit), False) == (lit > 0) for lit in literals
        }

    def decode_current_observation(self) -> tuple[int, ...]:
        """The observation vector of the most recent SAT result — the hot
        path of the solve/block outcome-enumeration loops."""
        truth = self.current_values(
            {bit for slot in self.observation_slots for bit in slot.value.bits}
        )
        return tuple(
            BitVecBuilder.decode(slot.value, truth.__getitem__)
            for slot in self.observation_slots
        )

    # ------------------------------------------------------------- decoding

    @staticmethod
    def _evaluate(handle: int, model: dict[int, bool]) -> bool:
        return model.get(abs(handle), False) == (handle > 0)

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

        Reads each pair's literal out of the order table
        (:attr:`repro.encoding.memory.MemoryOrderEncoding.table`).  Under
        the pruned encoding some pairs carry no order information at all
        (they were proven order-irrelevant), so the model only fixes a
        partial order; a deterministic topological sort (ties broken by
        access index) produces a total order consistent with it.
        """
        resolved = self.order.resolved
        executed = [
            a for a in self.order.accesses if self._evaluate(a.guard, model)
        ]
        count = len(executed)
        successors: list[list[int]] = [[] for _ in range(count)]
        indegree = [0] * count
        for x in range(count):
            for y in range(x + 1, count):
                lit = resolved(executed[x].index, executed[y].index)
                if lit is None:
                    continue
                if self._evaluate(lit, model):
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
        index -> store index, or ``None`` for the initial value.
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
    every thread (its builder's CNF holds the clauses of every thread
    formula and shared term), the observation slots / assertions /
    overflow handles, and the access table every memory-model layer reads.
    Per-model layers must never mutate it: they run on
    :meth:`EncodingContext.fork` snapshots (see :func:`encode_test`).
    It holds no reference to the compiled test that memoizes it, so
    dropping the compiled test frees the skeleton without a garbage
    collection.
    """

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
    """Symbolically execute every thread and build the shared terms."""
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
    _prewarm_shared_terms(context, table)
    return EncodingSkeleton(
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
) -> None:
    """Build the model-independent terms into the skeleton.

    Address equalities and initial-value terms are what the value and
    same-address axioms consume; building them here writes their clauses
    into the skeleton's CNF, which every fork inherits, so no per-model
    layer re-walks the bit-vector builders for them.  Every gate built is
    in the CNF, so only terms some model references are built.  Skipped
    are load/store pairs the model-independent core order proves
    invisible (store after load under every model), same-address pairs it
    already orders, and init-thread and atomic-block-internal pairs
    (statically ordered everywhere, so never compared symbolically); a
    term a model still needs is built on its fork.  Cross-thread store
    pairs never compare addresses at all: the <M-maximality clauses reuse
    the load's own visibility conjuncts.  Value equality needs no term:
    the value axioms compare the value bits one by one under a reads-from
    selector.  The construction order fixes the variable numbering, hence
    every CNF.
    """
    # The same-thread (earlier, store) pairs of the same-address axiom
    # compare addresses symbolically — except on the init thread and inside
    # one atomic block, where every model orders them statically.  A pair
    # whose comparison would fold to the constant TRUE is a static order
    # edge under every registered model and feeds the core relation below
    # through table.const_edges.  BitVecBuilder.eq folds to TRUE exactly
    # when the zero-extended bits are equal, so those pairs are found
    # without building a comparison.  A pair the core already orders has
    # the order-table entry TRUE in every model, so the same-address axiom
    # never references its comparison.
    core_reach = table.closure(table.core_successors)
    for first, second in table.same_thread_pairs:
        if first.thread == INIT_THREAD or not second.is_store:
            continue
        if (
            first.atomic_group is not None
            and first.atomic_group == second.atomic_group
        ):
            continue
        if not table.may_alias(first, second):
            continue
        first_addr, second_addr = context.bvb.match_widths(
            first.addr, second.addr
        )
        if first_addr == second_addr:
            table.const_edges.append((first, second))
        elif not (core_reach[first.index] >> second.index) & 1:
            context.addr_eq(first, second)

    successors = list(table.core_successors)
    table.add_edges(successors, table.const_edges)
    reach = table.closure(successors)
    for load, stores in table.candidates:
        context.initial_value_term(load)
        load_reach = reach[load.index]
        for store in stores:
            if not (load_reach >> store.index) & 1:
                context.addr_eq(load, store)


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
    stats.cnf_variables = context.circuit.cnf.num_vars
    stats.cnf_clauses = context.circuit.cnf.num_clauses
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
        compiled=compiled,
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
