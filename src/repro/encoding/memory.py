"""The memory-model formula ``Theta`` (Section 3.2.1).

Given the per-thread symbolic encodings, this module introduces the memory
order variables ``Mxy`` (with antisymmetry by sharing the variable and
transitivity by explicit clauses), and asserts

* the program-order axioms of the chosen memory model, "initialization
  happens first" for the init thread and program order inside atomic
  blocks — all static edges (below), so they fold to constants and emit
  no clause,
* the same-address store order, fence and atomic non-interleaving rules,
* the value axioms — a load reads the ``<M``-maximal visible store, or the
  initial value — through one reads-from selector per load and possible
  source instead of the paper's ``Init_l`` / ``Flows_{s,l}`` terms, as
  direct clauses with bitwise value equality
  (:meth:`MemoryModelEncoder._assert_value_axioms`), so the model names
  the store every load read (:attr:`MemoryOrderEncoding.sources`), and
* for the Seriality model, the operation-atomicity constraints used to mine
  the specification.

The paper's construction gives every pair of accesses an order variable
and asserts full O(n^3) transitivity.  This module builds a pruned
equivalent instead.  A *static order resolver* first decides every pair
whose direction is forced unconditionally — preserved program order,
init-first, atomic-block-internal order, always-executed fences, constant
same-address store pairs — and takes the transitive closure.  Everything
about the accesses that no memory model changes (their dense positions,
alias sets, per-thread order, fence pairs, atomic groups, may-alias
candidate stores and the *core* of that static order) lives in one
:class:`AccessTable`, built once per encoding skeleton; a per-model layer
starts from the core and adds only its own model's edges.
:meth:`MemoryOrderEncoding.order` constant-folds those pairs to
``TRUE``/``FALSE`` instead of minting a variable plus a unit clause.  Order
variables are minted only for pairs that can influence outcomes: pairs
queried by the value axioms (a load and its may-alias candidate stores, and
those stores among each other), by conditional fence/same-address/atomic/
seriality constraints, plus the *fill* pairs produced by triangulating the
resulting constraint graph (min-degree elimination).  Transitivity is
asserted as two no-3-cycle clauses per elimination triangle, with statically
known edges folded into binary implications; triangulating the support
graph makes the triangle constraints equivalent to full transitivity (every
cycle in a chordal graph has a chord, so acyclic triangles imply an acyclic
— hence linearizable — order).  Pairs that appear in no constraint get no
variable at all; counterexample decoding topologically sorts the remaining
partial order (:meth:`repro.encoding.formula.EncodedTest
.decode_memory_order`).  The operational enumerator
(:mod:`repro.oracle.enumerator`) and the reads-from engine
(:mod:`repro.rfcheck`) check the resulting outcome sets independently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations, zip_longest

from repro.encoding.symbolic import MemoryAccess, ThreadEncoding
from repro.encoding.testprogram import INIT_THREAD
from repro.memorymodel.base import MemoryModel
from repro.sat.circuit import Circuit


@dataclass
class MemoryOrderEncoding:
    """The order relation, for the axioms and for decoding counterexamples.

    A pair of accesses is in exactly one of three states:

    * **statically resolved** (``static_pairs``): the direction is forced by
      the model regardless of the solver's choices; :meth:`order` returns
      the constant ``TRUE``/``FALSE`` handle.
    * **live** (``order_vars``): a SAT variable decides the direction.
    * **dead** (neither): no constraint ever mentions the pair; it has no
      variable, and :meth:`order` raises.  :meth:`resolved` returns ``None``
      so decoders can treat the pair as unordered.
    """

    accesses: list[MemoryAccess]
    order_vars: dict[tuple[int, int], int] = field(default_factory=dict)
    #: Statically resolved pairs, keyed ``(i, j)`` with ``i < j``; the value
    #: is ``True`` when ``accesses[i] <M accesses[j]``.
    static_pairs: dict[tuple[int, int], bool] = field(default_factory=dict)
    #: Reads-from selectors of every load that can execute, keyed by the
    #: load's position: ``(source, literal)`` per possible source, where
    #: ``source`` is the position of a store, or ``None`` for the initial
    #: value, and ``literal`` is the selector's CNF literal.  Exactly one
    #: selector is true in a model that executes the load.
    sources: dict[int, list[tuple[int | None, int]]] = field(
        default_factory=dict
    )

    def order(self, first: int, second: int) -> int:
        """Circuit handle for ``access[first] <M access[second]``."""
        handle = self.resolved(first, second)
        if handle is None:
            raise KeyError(
                f"no order constraint between accesses {first} and {second} "
                "(the pruned encoding proved the pair order-irrelevant)"
            )
        return handle

    def resolved(self, first: int, second: int) -> int | None:
        """Like :meth:`order`, but ``None`` for dead pairs."""
        if first == second:
            raise ValueError("an access is never ordered before itself")
        forward = first < second
        key = (first, second) if forward else (second, first)
        static = self.static_pairs.get(key)
        if static is not None:
            return Circuit.TRUE if static == forward else Circuit.FALSE
        var = self.order_vars.get(key)
        if var is None:
            return None
        return var if forward else -var


class AccessTable:
    """The model-independent facts about a test's memory accesses.

    Built once per encoding skeleton (:func:`repro.encoding.formula
    .build_skeleton`) and read by the skeleton's term prewarm and by every
    :class:`MemoryModelEncoder` layer, none of which may mutate it.  Pairs
    are keyed by *dense positions*: an access's index in :attr:`accesses`
    (global access indices may have gaps).

    The *core* order (:attr:`core_successors`) holds the static edges the
    encoder asserts for every model without consulting it: init-thread
    program order, the init thread before every other, atomic-block
    program order and always-executed fences.
    """

    def __init__(self, threads: list[ThreadEncoding]) -> None:
        #: Every access, in index order.
        self.accesses = sorted(
            (a for t in threads for a in t.accesses), key=lambda a: a.index
        )
        self.position = {a.index: p for p, a in enumerate(self.accesses)}
        self.alias_sets: dict[int, frozenset | None] = {
            a.index: (
                frozenset(a.addr_candidates)
                if a.addr_candidates is not None
                else None
            )
            for a in self.accesses
        }
        #: Per-thread program order (seq-sorted), in thread order.
        self.by_thread = {
            t.thread: sorted(t.accesses, key=lambda a: a.seq) for t in threads
        }
        #: (earlier, later) pairs of accesses of one thread.
        self.same_thread_pairs = [
            (first, second)
            for thread_accesses in self.by_thread.values()
            for i, first in enumerate(thread_accesses)
            for second in thread_accesses[i + 1:]
        ]
        self.init_accesses = [
            a for a in self.accesses if a.thread == INIT_THREAD
        ]
        self.other_accesses = [
            a for a in self.accesses if a.thread != INIT_THREAD
        ]
        #: (before, after, guard) of every fence-ordered pair whose fence
        #: can execute (guard not FALSE).
        self.fence_pairs = list(self._enumerate_fence_pairs(threads))
        #: Members of every atomic block, seq-sorted.
        self.atomic_groups = self._collect_atomic_groups()
        #: (accesses of invocation A, accesses of invocation B) for every
        #: unordered pair of invocations (Seriality).
        self.invocation_group_pairs = self._pair_invocation_groups()
        #: (load, may-alias candidate stores in index order), loads in
        #: index order.
        self.candidates = self._may_alias_candidates()
        self.core_successors = self._core_successors()
        #: Same-thread (earlier, store) pairs whose address comparison is
        #: the constant TRUE — static edges of every model that orders
        #: same-address stores.  Filled by the skeleton's term prewarm,
        #: which builds those comparisons.
        self.const_edges: list[tuple[MemoryAccess, MemoryAccess]] = []
        # Static edges go from the init thread into the others or, within
        # one thread, to a higher seq, so this order is topological.
        accesses = self.accesses
        self._topo = sorted(
            range(len(accesses)),
            key=lambda p: (
                accesses[p].thread != INIT_THREAD,
                accesses[p].thread,
                accesses[p].seq,
                p,
            ),
        )

    def may_alias(self, first: MemoryAccess, second: MemoryAccess) -> bool:
        first_set = self.alias_sets[first.index]
        second_set = self.alias_sets[second.index]
        if first_set is None or second_set is None:
            return True
        return not first_set.isdisjoint(second_set)

    def add_edges(self, successors: list[int], pairs) -> None:
        """Add ``first -> second`` for every pair to the successor masks."""
        position = self.position
        for first, second in pairs:
            successors[position[first.index]] |= 1 << position[second.index]

    def closure(self, successors: list[int]) -> list[int]:
        """Reachability bitmasks of a static edge relation (one successor
        mask per dense position), by one reverse topological sweep."""
        reach = [0] * len(successors)
        for p in reversed(self._topo):
            result = successors[p]
            pending = successors[p]
            while pending:
                low = pending & -pending
                result |= reach[low.bit_length() - 1]
                pending ^= low
            reach[p] = result
        return reach

    def _enumerate_fence_pairs(self, threads: list[ThreadEncoding]):
        for thread in threads:
            accesses = self.by_thread[thread.thread]
            for fence in thread.fences:
                if fence.guard == Circuit.FALSE:
                    continue
                before = [
                    a for a in accesses
                    if a.seq < fence.seq and a.kind in fence.kind.orders_before
                ]
                after = [
                    a for a in accesses
                    if a.seq > fence.seq and a.kind in fence.kind.orders_after
                ]
                for first in before:
                    for second in after:
                        yield first, second, fence.guard

    def _collect_atomic_groups(self) -> list[list[MemoryAccess]]:
        groups: dict[int, list[MemoryAccess]] = {}
        # Iterating threads in seq order keeps every group seq-sorted
        # without re-sorting (atomic blocks never span threads).
        for accesses in self.by_thread.values():
            for access in accesses:
                if access.atomic_group is not None:
                    groups.setdefault(access.atomic_group, []).append(access)
        return list(groups.values())

    def _pair_invocation_groups(self):
        by_invocation: dict[int, list[MemoryAccess]] = {}
        for access in self.accesses:
            by_invocation.setdefault(access.invocation, []).append(access)
        invocations = sorted(by_invocation)
        return [
            (by_invocation[first_inv], by_invocation[second_inv])
            for index, first_inv in enumerate(invocations)
            for second_inv in invocations[index + 1:]
        ]

    def _may_alias_candidates(self):
        """Stores are indexed by their alias sets once; each load then
        gathers the stores of its own candidate locations instead of
        testing every (load, store) pair."""
        stores = [a for a in self.accesses if a.is_store]
        by_location: dict[int, list[MemoryAccess]] = {}
        wildcard: list[MemoryAccess] = []
        for store in stores:
            alias = self.alias_sets[store.index]
            if alias is None:
                wildcard.append(store)
            else:
                for location in alias:
                    by_location.setdefault(location, []).append(store)
        out: list[tuple[MemoryAccess, list[MemoryAccess]]] = []
        for load in self.accesses:
            if not load.is_load:
                continue
            alias = self.alias_sets[load.index]
            if alias is None:
                out.append((load, stores))
                continue
            merged = {s.index: s for s in wildcard}
            for location in alias:
                for store in by_location.get(location, ()):
                    merged[store.index] = store
            out.append((load, [merged[index] for index in sorted(merged)]))
        return out

    def _core_successors(self) -> list[int]:
        successors = [0] * len(self.accesses)
        self.add_edges(successors, (
            (first, second)
            for first, second in self.same_thread_pairs
            if first.thread == INIT_THREAD
            or (
                first.atomic_group is not None
                and first.atomic_group == second.atomic_group
            )
        ))
        self.add_edges(successors, (
            (first, second)
            for first, second, guard in self.fence_pairs
            if guard == Circuit.TRUE
        ))
        others = 0
        for access in self.other_accesses:
            others |= 1 << self.position[access.index]
        for access in self.init_accesses:
            successors[self.position[access.index]] |= others
        return successors


class MemoryModelEncoder:
    """Builds ``Theta`` for one memory model over a skeleton's
    :class:`AccessTable`."""

    def __init__(
        self,
        context,
        model: MemoryModel,
        table: AccessTable,
    ) -> None:
        self.ctx = context
        self.model = model
        self.table = table
        self.accesses = table.accesses
        self.encoding = MemoryOrderEncoding(accesses=table.accesses)
        #: Candidate stores per load, visibility-pruned by
        #: :meth:`_prune_value_candidates`.
        self._value_candidates: list[tuple[MemoryAccess, list[MemoryAccess]]] = []
        #: Atomic non-interleaving triples: walked by the seeder and the
        #: assertion pass, and quadratic, so built per layer rather than
        #: kept alive on the skeleton.
        self._exclusion_triples = self._atomic_exclusion_triples()
        #: Handle of every resolvable pair, doubly keyed by global access
        #: index; built by :meth:`_build_order_handle_map` after variable
        #: creation.
        self._order_handles: dict[tuple[int, int], int] = {}
        # Size counters surfaced through EncodingStatistics.
        self.transitivity_clause_count = 0
        self.value_clause_count = 0

    # --------------------------------------------------------------- public

    def encode(self) -> MemoryOrderEncoding:
        self._resolve_static_orders()
        self._prune_value_candidates()
        self._create_live_order_variables()
        self._build_order_handle_map()
        self._assert_same_address_order()
        self._assert_fences()
        self._assert_atomic_blocks()
        if self.model.operation_atomicity:
            self._assert_operation_atomicity()
        self._assert_value_axioms()
        return self.encoding

    # ----------------------------------------------------------- statistics

    @property
    def order_pair_count(self) -> int:
        n = len(self.accesses)
        return n * (n - 1) // 2

    @property
    def order_var_count(self) -> int:
        return len(self.encoding.order_vars)

    @property
    def static_pair_count(self) -> int:
        return len(self.encoding.static_pairs)

    # ----------------------------------------------------- static resolution

    def _resolve_static_orders(self) -> None:
        """Precompute every unconditionally ordered pair and its closure:
        the skeleton's core order plus this model's constant same-address
        store pairs and preserved program-order pairs."""
        table = self.table
        successors = list(table.core_successors)
        table.add_edges(successors, self._same_address_static_edges())
        preserves = self.model.preserves
        table.add_edges(successors, (
            (first, second)
            for first, second in table.same_thread_pairs
            if first.thread != INIT_THREAD
            and preserves(first.kind, second.kind)
        ))
        static = self.encoding.static_pairs
        for i, mask in enumerate(table.closure(successors)):
            while mask:
                low = mask & -mask
                j = low.bit_length() - 1
                mask ^= low
                if i < j:
                    static[(i, j)] = True
                else:
                    static[(j, i)] = False

    # ------------------------------------------------- conflict restriction

    def _create_live_order_variables(self) -> None:
        """Mint variables only for pairs that can influence outcomes, then
        assert pruned transitivity over the triangulated support graph."""
        seeds = self._seed_pairs()
        triangles = self._triangulate(seeds)
        # Order variables are minted unnamed: no decoder reads them back by
        # name, and the f-string plus two name-table inserts per variable
        # were a measurable slice of the per-model layer.
        var = self.ctx.circuit.var
        order_vars = self.encoding.order_vars
        for key in sorted(seeds):
            order_vars[key] = var()
        self._assert_transitivity_pruned(triangles)

    def _seed_pairs(self) -> set[tuple[int, int]]:
        """Every non-static pair some constraint will mention."""
        seeds: set[tuple[int, int]] = set()
        position = self.table.position
        resolved = self.encoding.resolved

        def need(first: MemoryAccess, second: MemoryAccess) -> None:
            i, j = position[first.index], position[second.index]
            key = (i, j) if i < j else (j, i)
            if key not in self.encoding.static_pairs:
                seeds.add(key)

        circuit = self.ctx.circuit
        for first, second in self._same_address_pairs():
            need(first, second)
        for first, second, guard in self.table.fence_pairs:
            if guard != circuit.TRUE:
                if not self.model.preserves(first.kind, second.kind):
                    need(first, second)
        for first, second, other in self._exclusion_triples:
            first_other = resolved(
                position[first.index], position[other.index]
            )
            other_second = resolved(
                position[other.index], position[second.index]
            )
            # The clause (not first<other) or (not other<second) is
            # trivially true when either order is statically impossible.
            if first_other == circuit.FALSE or other_second == circuit.FALSE:
                continue
            if first_other is None:
                need(first, other)
            if other_second is None:
                need(other, second)
        if self.model.operation_atomicity:
            for group_a, group_b in self.table.invocation_group_pairs:
                for x in group_a:
                    for y in group_b:
                        need(x, y)
        for load, candidates in self._value_candidates:
            for store in candidates:
                if not self._forwarded(store, load):
                    need(store, load)
            for first, second in combinations(candidates, 2):
                need(first, second)
        return seeds

    def _triangulate(
        self, seeds: set[tuple[int, int]]
    ) -> list[tuple[int, int, int]]:
        """Chordalize the support graph by min-degree elimination.

        The support graph has an edge for every live or static pair between
        non-init accesses (init accesses have only outgoing static edges, so
        no cycle passes through them).  Fill edges discovered during
        elimination become live pairs (added to ``seeds``); the returned
        elimination triangles are exactly the triples over which no-3-cycle
        clauses must be asserted to make every orientation extendable to a
        total order.
        """
        n = len(self.accesses)
        position = self.table.position
        vertices = [position[a.index] for a in self.table.other_accesses]
        # Adjacency as one bitmask per vertex: membership tests, edge
        # updates and degree counts (popcount) all beat set operations in
        # this loop, and iterating set bits in ascending order gives the
        # sorted neighbor walk the fill computation needs for determinism.
        adjacency = [0] * n
        allowed = 0
        for p in vertices:
            allowed |= 1 << p
        for pairs in (seeds, self.encoding.static_pairs):
            for i, j in pairs:
                if (allowed >> i) & 1 and (allowed >> j) & 1:
                    adjacency[i] |= 1 << j
                    adjacency[j] |= 1 << i

        triangles: list[tuple[int, int, int]] = []
        static_pairs = self.encoding.static_pairs
        append = triangles.append
        alive = set(vertices)
        # Lazy min-degree heap: entries go stale when a neighbor's degree
        # changes, so each pop re-checks the recorded degree, and touched
        # neighbors are re-entered with their settled degree — the pop
        # order matches an eager min-scan exactly.  Scanning `alive` for
        # the minimum on every round was quadratic in the vertex count and
        # showed up in layer profiles.
        heap = [(adjacency[p].bit_count(), p) for p in vertices]
        heapq.heapify(heap)
        push = heapq.heappush
        while alive:
            degree, vertex = heapq.heappop(heap)
            if vertex not in alive:
                continue
            mask = adjacency[vertex]
            current = mask.bit_count()
            if current != degree:
                push(heap, (current, vertex))
                continue
            alive.discard(vertex)
            neighbors = []
            while mask:
                low = mask & -mask
                neighbors.append(low.bit_length() - 1)
                mask ^= low
            vertex_bit = 1 << vertex
            for index, a in enumerate(neighbors):
                adjacency[a] &= ~vertex_bit
                a_bit = 1 << a
                for b in neighbors[index + 1:]:
                    append((vertex, a, b))
                    b_bit = 1 << b
                    if not adjacency[a] & b_bit:
                        adjacency[a] |= b_bit
                        adjacency[b] |= a_bit
                        # a < b by construction (ascending bit order).
                        if (a, b) not in static_pairs:
                            seeds.add((a, b))
            adjacency[vertex] = 0
            for a in neighbors:
                push(heap, (adjacency[a].bit_count(), a))
        return triangles

    def _assert_transitivity_pruned(
        self, triangles: list[tuple[int, int, int]]
    ) -> None:
        """Forbid both cyclic orientations of every elimination triangle.

        Statically resolved edges fold away: a triangle with a known edge
        degenerates to one binary implication, and a triangle whose cycle is
        already statically impossible emits nothing.

        This is the hottest loop of the per-model layer (hundreds of
        thousands of triangles on the larger tests), so every support-graph
        edge is resolved to its SAT literal (or static truth value) exactly
        once up front and the clauses go through the trusted CNF path — the
        three literals of a triangle clause are distinct order variables by
        construction, so no per-clause normalization is needed.
        """
        # ``i*n + j`` in *both* orientations -> True/False when statically
        # resolved, else the SAT literal of "i <M j".  A flat list indexed
        # arithmetically beats a tuple-keyed dict in the triangle loop;
        # booleans and literals share the slots: literals always have
        # |lit| >= 2 (variable 1 is the lowering's constant), so identity
        # checks against True/False are unambiguous.
        n_acc = len(self.accesses)
        edges: list = [None] * (n_acc * n_acc)
        for (i, j), forced in self.encoding.static_pairs.items():
            edges[i * n_acc + j] = forced
            edges[j * n_acc + i] = not forced
        order_vars = self.encoding.order_vars
        lits = self.ctx.lowering.var_literals(order_vars.values())
        for (i, j), lit in zip(order_vars, lits):
            edges[i * n_acc + j] = lit
            edges[j * n_acc + i] = -lit
        # Clauses are batched into flat buffers and installed in one go;
        # `append` is bound once — this loop dominates layer time on the
        # larger tests.
        buf: list[int] = []
        lengths: list[int] = []
        push = buf.append
        push_len = lengths.append
        count = 0
        for v, a, b in triangles:
            row = v * n_acc
            e1 = edges[row + a]  # v <M a
            e2 = edges[a * n_acc + b]  # a <M b
            e3 = edges[row + b]  # v <M b
            # cycle v -> a -> b -> v: not(e1 and e2 and not e3)
            if not (e1 is False or e2 is False or e3 is True):
                n = 0
                if e1 is not True:
                    push(-e1)
                    n += 1
                if e2 is not True:
                    push(-e2)
                    n += 1
                if e3 is not False:
                    push(e3)
                    n += 1
                push_len(n)
                count += 1
            # cycle v -> b -> a -> v: not(e3 and not e2 and not e1)
            if not (e3 is False or e2 is True or e1 is True):
                n = 0
                if e3 is not True:
                    push(-e3)
                    n += 1
                if e2 is not False:
                    push(e2)
                    n += 1
                if e1 is not False:
                    push(e1)
                    n += 1
                push_len(n)
                count += 1
        self.ctx.lowering.cnf.add_clauses_trusted_flat(buf, lengths)
        self.transitivity_clause_count += count

    # ---------------------------------------------------------- pair streams

    def _build_order_handle_map(self) -> None:
        """Resolve every live/static pair to its handle once, keyed by
        global access index in both orientations, so the axiom emitters
        (the value axioms in particular call :meth:`_order_of` once per
        candidate-store pair) skip the position lookup and the per-call
        key normalization of :meth:`MemoryOrderEncoding.resolved`."""
        accesses = self.accesses
        handles: dict[tuple[int, int], int] = {}
        for (i, j), forced in self.encoding.static_pairs.items():
            xi, xj = accesses[i].index, accesses[j].index
            if forced:
                handles[(xi, xj)] = Circuit.TRUE
                handles[(xj, xi)] = Circuit.FALSE
            else:
                handles[(xi, xj)] = Circuit.FALSE
                handles[(xj, xi)] = Circuit.TRUE
        for (i, j), var in self.encoding.order_vars.items():
            xi, xj = accesses[i].index, accesses[j].index
            handles[(xi, xj)] = var
            handles[(xj, xi)] = -var
        self._order_handles = handles

    def _same_address_static_edges(self):
        """Same-address store order with a *constant* address comparison —
        the static half of axiom 1 (the symbolic half is emitted by
        :meth:`_assert_same_address_order`): the skeleton's constant pairs,
        under a model that orders same-address stores."""
        if not self.model.same_address_store_order:
            return ()
        return self.table.const_edges

    def _same_address_pairs(self):
        """Pairs the same-address store-order axiom constrains with a
        *symbolic* address comparison (constant comparisons are static or
        vacuous)."""
        if not self.model.same_address_store_order:
            return
        circuit = self.ctx.circuit
        for first, second in self.table.same_thread_pairs:
            if not second.is_store:
                continue
            if first.thread == INIT_THREAD:
                continue  # already totally ordered
            if self.model.preserves(first.kind, second.kind):
                continue  # already ordered unconditionally
            if not self.table.may_alias(first, second):
                continue
            addr_eq = self.ctx.addr_eq(first, second)
            if addr_eq == circuit.FALSE:
                continue  # can never be the same address
            if addr_eq == circuit.TRUE:
                continue  # statically resolved instead
            yield first, second

    def _atomic_exclusion_triples(self):
        """(first, second, other) triples for atomic non-interleaving: no
        ``other`` of a different thread lands between two block members."""
        triples = []
        for members in self.table.atomic_groups:
            thread = members[0].thread
            outside = [a for a in self.accesses if a.thread != thread]
            for i, first in enumerate(members):
                for second in members[i + 1:]:
                    for other in outside:
                        triples.append((first, second, other))
        return triples

    # ------------------------------------------------------------ the axioms

    def _assert_same_address_order(self) -> None:
        # addr_eq -> ordered, asserted as one clause directly (routing it
        # through an implies() node would Tseitin-lower an OR gate per pair
        # just to assert its output true).
        circuit = self.ctx.circuit
        for first, second in self._same_address_pairs():
            handle = self._order_of(first, second)
            if handle == circuit.TRUE:
                continue
            self.ctx.assert_clause(
                [-self.ctx.addr_eq(first, second), handle]
            )

    def _assert_fences(self) -> None:
        circuit = self.ctx.circuit
        for first, second, guard in self.table.fence_pairs:
            if self.model.preserves(first.kind, second.kind):
                continue
            handle = self._order_of(first, second)
            if handle == circuit.TRUE:
                continue  # statically resolved (always-executed fence)
            self.ctx.assert_clause([-guard, handle])

    def _assert_atomic_blocks(self) -> None:
        # No access of another thread interleaves with an atomic block
        # (program order inside the block is a static edge).  The triple
        # count is the layer's largest clause source after transitivity,
        # so handles come straight from the prebuilt map (a pair whose
        # order is statically impossible was never seeded, so a missing
        # entry means the clause is vacuous), literals are memoized locally
        # (the same order variables recur across triples), and the clauses
        # go out through the trusted bulk path — at most two distinct order
        # literals each, so no normalization is needed.
        handles = self._order_handles
        literal = self.ctx.lowering.literal
        true_handle = Circuit.TRUE
        false_handle = Circuit.FALSE
        lit_of: dict[int, int] = {}
        buf: list[int] = []
        lengths: list[int] = []
        push = buf.append
        push_len = lengths.append
        for first, second, other in self._exclusion_triples:
            first_other = handles.get((first.index, other.index))
            other_second = handles.get((other.index, second.index))
            if first_other == false_handle or other_second == false_handle:
                continue  # one of the two orders is statically impossible
            count = 0
            if first_other != true_handle:
                lit = lit_of.get(first_other)
                if lit is None:
                    lit = literal(first_other)
                    lit_of[first_other] = lit
                push(-lit)
                count += 1
            if other_second != true_handle:
                lit = lit_of.get(other_second)
                if lit is None:
                    lit = literal(other_second)
                    lit_of[other_second] = lit
                push(-lit)
                count += 1
            # count == 0 (both orders statically forced) appends the empty
            # clause, marking the formula unsatisfiable exactly as the
            # generic path did.
            push_len(count)
        if lengths:
            self.ctx.lowering.cnf.add_clauses_trusted_flat(buf, lengths)

    def _assert_operation_atomicity(self) -> None:
        """Seriality: accesses of different invocations never interleave.

        ``order <-> OP`` goes out as two clauses directly; a static pair
        degenerates to a unit constraint on the OP variable (an ``iff()``
        node would Tseitin-lower an XOR cone per access pair just to assert
        its output).  Clauses are batched through the trusted path — every
        clause pairs the OP literal with a distinct order literal.
        """
        circuit = self.ctx.circuit
        literal = self.ctx.lowering.literal
        handles = self._order_handles
        true_handle = Circuit.TRUE
        false_handle = Circuit.FALSE
        lit_of: dict[int, int] = {}
        buf: list[int] = []
        lengths: list[int] = []
        push = buf.append
        push_len = lengths.append
        for group_a, group_b in self.table.invocation_group_pairs:
            first_inv = group_a[0].invocation
            second_inv = group_b[0].invocation
            op_lit = literal(circuit.var(f"OP[{first_inv},{second_inv}]"))
            for x in group_a:
                x_index = x.index
                for y in group_b:
                    handle = handles[(x_index, y.index)]
                    if handle == true_handle:
                        push(op_lit)
                        push_len(1)
                    elif handle == false_handle:
                        push(-op_lit)
                        push_len(1)
                    else:
                        lit = lit_of.get(handle)
                        if lit is None:
                            lit = literal(handle)
                            lit_of[handle] = lit
                        push(-lit)
                        push(op_lit)
                        push_len(2)
                        push(lit)
                        push(-op_lit)
                        push_len(2)
        if lengths:
            self.ctx.lowering.cnf.add_clauses_trusted_flat(buf, lengths)

    # ---------------------------------------------------------- value axioms

    def _prune_value_candidates(self) -> None:
        """Drop statically invisible stores from every candidate list (the
        store is ordered after the load and forwarding does not apply).
        Runs once, right after static resolution, so the seeder and the
        value-axiom emitter consume the exact same lists."""
        self._value_candidates = [
            (load, [s for s in candidates if self._visible(s, load)])
            for load, candidates in self.table.candidates
        ]

    def _visible(self, store: MemoryAccess, load: MemoryAccess) -> bool:
        """Can this store possibly be visible to the load?  False only when
        the static resolver ordered the store after the load and store
        forwarding does not apply."""
        if self._forwarded(store, load):
            return True
        position = self.table.position
        handle = self.encoding.resolved(
            position[store.index], position[load.index]
        )
        return handle != self.ctx.circuit.FALSE

    def _assert_value_axioms(self) -> None:
        """An executed load reads the ``<M``-maximal visible store, or the
        initial value of its address when no store is visible.

        A candidate store ``s`` is *visible* to load ``l`` when
        ``vis(s) = guard(s) & addr_eq(l, s) & s <M l`` holds (the order
        conjunct is dropped for a forwarded store).  Each load gets one
        fresh reads-from selector ``rf(s)`` per candidate that can be its
        source, plus ``rf(init)``, and the axiom goes out as direct
        clauses (partial-order BMC style, Alglave et al., CAV 2013):

        * ``guard(l) -> rf(init) | OR rf(s)``;
        * ``rf(s) -> vis(s)``, and ``rf(s) -> (v_l[b] <-> v_s[b])`` for
          every value bit;
        * ``rf(s) & vis(s') -> s' <M s`` for every other candidate ``s'``;
        * ``rf(init) -> ~vis(s)`` for every candidate, and
          ``rf(init) -> initial_value_term(l)``.

        No at-most-one clauses are needed: two true selectors of one load
        would force both orders of one pair, which share a variable.

        The literals are clause-ready by construction — every candidate's
        visibility conjuncts are normalized once (constants folded,
        duplicates merged, a candidate with a FALSE or complementary
        conjunct is never visible and dropped), selectors are fresh, and
        a maximality clause's order literal names a pair of stores, which
        no visibility conjunct does — so the clauses go through the
        trusted bulk path.
        """
        lowering = self.ctx.lowering
        literal = lowering.literal
        new_var = lowering.cnf.new_var
        addr_eq = self.ctx.addr_eq
        initial_value_term = self.ctx.initial_value_term
        handles = self._order_handles
        position = self.table.position
        sources = self.encoding.sources
        true_handle = Circuit.TRUE
        false_handle = Circuit.FALSE
        # Value bits as CNF literals; the constants map to +-1, the
        # lowering's constant-TRUE variable.
        value_lits = {
            a.index: [literal(bit) for bit in a.value.bits]
            for a in self.accesses
        }
        buf: list[int] = []
        lengths: list[int] = []
        push = buf.append
        extend = buf.extend
        push_len = lengths.append
        for load, candidates in self._value_candidates:
            if load.guard == false_handle:
                continue
            load_index = load.index
            # (store, negated visibility literals) of every candidate that
            # can be visible; an empty list means "always visible".
            visible: list[tuple[MemoryAccess, list[int]]] = []
            for store in candidates:
                if self._forwarded(store, load):
                    order = true_handle
                else:
                    order = handles[(store.index, load_index)]
                negated: list[int] = []
                for handle in (store.guard, addr_eq(load, store), order):
                    if handle == true_handle:
                        continue
                    if handle == false_handle:
                        break
                    lit = -literal(handle)
                    if -lit in negated:
                        break
                    if lit not in negated:
                        negated.append(lit)
                else:
                    visible.append((store, negated))

            load_bits = value_lits[load_index]
            selectors: list[tuple[int | None, int]] = []
            for store, negated in visible:
                # Bitwise value equality as clause tails under rf(store);
                # None when the two values can never be equal.
                tails: list[tuple[int, ...]] | None = []
                # A missing high bit of the narrower value is FALSE (-1).
                for a, s in zip_longest(
                    load_bits, value_lits[store.index], fillvalue=-1
                ):
                    if a == s:
                        continue
                    if a == -s:
                        tails = None
                        break
                    if abs(a) == 1:
                        tails.append((s if a > 0 else -s,))
                    elif abs(s) == 1:
                        tails.append((a if s > 0 else -a,))
                    else:
                        tails.append((-a, s))
                        tails.append((a, -s))
                if tails is None:
                    continue
                rf = new_var()
                selectors.append((position[store.index], rf))
                for lit in negated:
                    push(-rf)
                    push(-lit)
                    push_len(2)
                for tail in tails:
                    push(-rf)
                    extend(tail)
                    push_len(len(tail) + 1)
                # Maximality: every other visible candidate precedes store.
                store_index = store.index
                for other, other_negated in visible:
                    if other is store:
                        continue
                    order = handles[(other.index, store_index)]
                    if order == true_handle:
                        continue
                    push(-rf)
                    extend(other_negated)
                    if order == false_handle:
                        push_len(len(other_negated) + 1)
                    else:
                        push(literal(order))
                        push_len(len(other_negated) + 2)

            # No rf(init) when the initial value can never match or some
            # candidate is always visible.
            init_term = initial_value_term(load)
            if init_term != false_handle and all(n for _, n in visible):
                rf = new_var()
                selectors.insert(0, (None, rf))
                for _, negated in visible:
                    push(-rf)
                    extend(negated)
                    push_len(len(negated) + 1)
                if init_term != true_handle:
                    push(-rf)
                    push(literal(init_term))
                    push_len(2)

            sources[position[load_index]] = selectors
            count = len(selectors)
            if load.guard != true_handle:
                push(-literal(load.guard))
                count += 1
            extend(rf for _, rf in selectors)
            push_len(count)
        lowering.cnf.add_clauses_trusted_flat(buf, lengths)
        self.value_clause_count += len(lengths)

    def _forwarded(self, store: MemoryAccess, load: MemoryAccess) -> bool:
        """Store-queue forwarding: a program-order-earlier store of the
        load's own thread is visible regardless of the global order."""
        return (
            self.model.store_forwarding
            and store.thread == load.thread
            and store.seq < load.seq
        )

    # ------------------------------------------------------------ utilities

    def _order_of(self, first: MemoryAccess, second: MemoryAccess) -> int:
        return self._order_handles[(first.index, second.index)]
