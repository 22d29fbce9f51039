"""The memory-model formula ``Theta`` (Section 3.2.1).

Given the per-thread symbolic encodings, this module introduces the memory
order ``<M`` — one variable per access pair, with antisymmetry by sharing the
variable and transitivity by explicit clauses — and asserts

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

The whole relation lives in one place, :attr:`MemoryOrderEncoding.table`: a
flat list indexed ``i * n + j`` by access index (an access's ``index`` is
its position in the test's access list) holding the CNF literal of
``accesses[i] <M accesses[j]``.  The layer writes its clauses into the
CNF of the skeleton fork's gate builder (:class:`repro.sat.circuit.Circuit`),
whose handles are literals of that same CNF: an access guard, an address
comparison or a value bit goes into a clause as it is.

The paper's construction gives every pair of accesses an order variable
and asserts full O(n^3) transitivity.  This module builds a pruned
equivalent instead.  A *static order resolver* first decides every pair
whose direction is forced unconditionally — preserved program order,
init-first, atomic-block-internal order, always-executed fences, constant
same-address store pairs — and takes the transitive closure.  Everything
about the accesses that no memory model changes (alias sets, per-thread
order, fence pairs, atomic groups, may-alias candidate stores and the
*core* of that static order) lives in one :class:`AccessTable`, built once
per encoding skeleton; a per-model layer starts from the core and adds only
its own model's edges.  Those pairs hold the constant literals ``1``/``-1``
instead of a variable plus a unit clause.  Order variables are
minted only for pairs that can influence outcomes: pairs queried by the
value axioms (a load and its may-alias candidate stores, and those stores
among each other), by conditional fence/same-address/atomic/seriality
constraints, plus the *fill* pairs produced by triangulating the resulting
constraint graph (min-degree elimination).  Transitivity is asserted as two
no-3-cycle clauses per elimination triangle, with statically known edges
folded into binary implications; triangulating the support graph makes the
triangle constraints equivalent to full transitivity (every cycle in a
chordal graph has a chord, so acyclic triangles imply an acyclic — hence
linearizable — order).  One call per layer triangulates, numbers the live
pairs and writes those clauses: :func:`repro.sat.native.build_order` in the
native library (its pure-Python twin :func:`build_order` is the reference
the byte-identity tests compare it with).  Pairs that appear in no
constraint get no variable at all; counterexample decoding topologically
sorts the remaining partial order
(:meth:`repro.encoding.formula.EncodedTest.decode_memory_order`).
The operational enumerator (:mod:`repro.oracle.enumerator`) and the
reads-from engine (:mod:`repro.rfcheck`) check the resulting outcome sets
independently.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from itertools import chain, combinations, zip_longest
from typing import Iterable, Sequence

from repro.encoding.symbolic import MemoryAccess, ThreadEncoding
from repro.encoding.testprogram import INIT_THREAD
from repro.memorymodel.base import MemoryModel
from repro.sat.circuit import Circuit


@dataclass
class MemoryOrderEncoding:
    """The memory order of one layer, for the axioms and for decoding
    counterexamples.

    ``table[i * n + j]`` (``n = len(accesses)``) is the CNF literal of
    ``accesses[i] <M accesses[j]``, so a pair's two entries are negations
    of each other, and it is in exactly one of three states:

    * **statically resolved**: the direction is forced by the model
      regardless of the solver's choices; the entry is ``1`` or ``-1``,
      the constant TRUE/FALSE (:attr:`Circuit.TRUE` and
      :attr:`Circuit.FALSE`).
    * **live**: an order variable (or its negation) decides the direction.
    * **dead**: no constraint ever mentions the pair; the entry is
      ``None``, so decoders treat the pair as unordered.  So is the
      diagonal.

    An entry is a CNF literal, like every handle of the encoder: read it
    under a model as ``model[abs(lit)] == (lit > 0)``.
    """

    accesses: list[MemoryAccess]
    table: list[int | None]
    #: Reads-from selectors of every load that can execute, keyed by the
    #: load's index: ``(source, literal)`` per possible source, where
    #: ``source`` is the index of a store, or ``None`` for the initial
    #: value, and ``literal`` is the selector's CNF literal.  Exactly one
    #: selector is true in a model that executes the load.
    sources: dict[int, list[tuple[int | None, int]]] = field(
        default_factory=dict
    )

    def resolved(self, first: int, second: int) -> int | None:
        """The literal of ``accesses[first] <M accesses[second]``, or
        ``None`` for a dead pair."""
        return self.table[first * len(self.accesses) + second]


class AccessTable:
    """The model-independent facts about a test's memory accesses.

    Built once per encoding skeleton (:func:`repro.encoding.formula
    .build_skeleton`) and read by the skeleton's term prewarm and by every
    :class:`MemoryModelEncoder` layer, none of which may mutate it.  An
    access's ``index`` is its position in :attr:`accesses`: the encoder
    numbers accesses 0, 1, ... in creation order, and every thread's
    accesses are here.

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
        #: Bitmask of the non-init access indices: the vertices of every
        #: layer's support graph (:func:`build_order`).
        self.other_mask = 0
        for access in self.other_accesses:
            self.other_mask |= 1 << access.index
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
        for first, second in pairs:
            successors[first.index] |= 1 << second.index

    def closure(self, successors: list[int]) -> list[int]:
        """Reachability bitmasks of a static edge relation (one successor
        mask per access index), by one reverse topological sweep."""
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
        for access in self.init_accesses:
            successors[access.index] |= self.other_mask
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
        n = len(table.accesses)
        self.encoding = MemoryOrderEncoding(
            accesses=table.accesses, table=[None] * (n * n)
        )
        #: Candidate stores per load, visibility-pruned by
        #: :meth:`_prune_value_candidates`.
        self._value_candidates: list[tuple[MemoryAccess, list[MemoryAccess]]] = []
        #: Atomic non-interleaving triples: walked by the seeder and the
        #: assertion pass, and quadratic, so built per layer rather than
        #: kept alive on the skeleton.
        self._exclusion_triples = self._atomic_exclusion_triples()
        #: Reachability masks of the static order, per access index.
        self._static_reach: list[int] = []
        # Size counters surfaced through EncodingStatistics.
        self.static_pair_count = 0
        self.order_var_count = 0
        self.transitivity_clause_count = 0
        self.value_clause_count = 0

    # --------------------------------------------------------------- public

    def encode(self) -> MemoryOrderEncoding:
        self._resolve_static_orders()
        self._prune_value_candidates()
        self._create_live_order_variables()
        self._assert_same_address_order()
        self._assert_fences()
        self._assert_atomic_blocks()
        if self.model.operation_atomicity:
            self._assert_operation_atomicity()
        self._assert_value_axioms()
        return self.encoding

    @property
    def order_pair_count(self) -> int:
        n = len(self.accesses)
        return n * (n - 1) // 2

    # ----------------------------------------------------- static resolution

    def _resolve_static_orders(self) -> None:
        """Precompute every unconditionally ordered pair and its closure:
        the skeleton's core order plus this model's constant same-address
        store pairs and preserved program-order pairs.  Each closure edge
        fills its two table entries with the constant literals."""
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
        reach = table.closure(successors)
        self._static_reach = reach
        order = self.encoding.table
        n = len(self.accesses)
        for i, mask in enumerate(reach):
            self.static_pair_count += mask.bit_count()
            while mask:
                low = mask & -mask
                j = low.bit_length() - 1
                mask ^= low
                order[i * n + j] = 1
                order[j * n + i] = -1

    # ------------------------------------------------- conflict restriction

    def _create_live_order_variables(self) -> None:
        """Mint variables only for pairs that can influence outcomes, then
        assert pruned transitivity over the triangulated support graph.

        :func:`repro.sat.native.build_order` does both in the native
        library.  The layer mints the returned pairs' variables in order
        and adds the clauses through the trusted path: a triangle
        clause's literals are distinct order variables by construction.
        """
        # Imported here, as the backends do: the binding pulls in ctypes,
        # which no import of the encoder needs to pay for.
        from repro.sat import native

        cnf = self.ctx.circuit.cnf
        n = len(self.accesses)
        pairs, literals, lengths = native.build_order(
            n, self._static_reach, self.table.other_mask, self._seed_pairs(),
            cnf.num_vars + 1,
        )
        order = self.encoding.table
        flat = iter(pairs)
        for var, i, j in zip(cnf.new_vars(len(pairs) // 2), flat, flat):
            order[i * n + j] = var
            order[j * n + i] = -var
        self.order_var_count = len(pairs) // 2
        cnf.add_clauses_trusted_flat(literals, lengths)
        self.transitivity_clause_count += len(lengths)

    def _seed_pairs(self) -> set[tuple[int, int]]:
        """Every non-static pair some constraint will mention."""
        seeds: set[tuple[int, int]] = set()
        order = self.encoding.table
        n = len(self.accesses)

        def need(first: MemoryAccess, second: MemoryAccess) -> None:
            i, j = first.index, second.index
            if order[i * n + j] is None:
                seeds.add((i, j) if i < j else (j, i))

        for first, second in self._same_address_pairs():
            need(first, second)
        for first, second, guard in self.table.fence_pairs:
            if guard != Circuit.TRUE:
                if not self.model.preserves(first.kind, second.kind):
                    need(first, second)
        for first, second, other in self._exclusion_triples:
            first_other = order[first.index * n + other.index]
            other_second = order[other.index * n + second.index]
            # The clause (not first<other) or (not other<second) is
            # trivially true when either order is statically impossible.
            if first_other == -1 or other_second == -1:
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

    # ---------------------------------------------------------- pair streams

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
        order = self.encoding.table
        n = len(self.accesses)
        for first, second in self.table.same_thread_pairs:
            if not second.is_store:
                continue
            if first.thread == INIT_THREAD:
                continue  # already totally ordered
            if self.model.preserves(first.kind, second.kind):
                continue  # already ordered unconditionally
            if not self.table.may_alias(first, second):
                continue
            if order[first.index * n + second.index] == 1:
                # Statically ordered: the clause is vacuous, so build no
                # comparison (its gates would be written into the CNF).
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
        addr_eq = self.ctx.addr_eq
        self._assert_ordered_when(
            (first, second, addr_eq(first, second))
            for first, second in self._same_address_pairs()
        )

    def _assert_fences(self) -> None:
        # An always-executed fence is a static edge, so it emits nothing.
        self._assert_ordered_when(
            (first, second, guard)
            for first, second, guard in self.table.fence_pairs
            if not self.model.preserves(first.kind, second.kind)
        )

    def _assert_ordered_when(self, triples) -> None:
        """``condition -> first <M second`` for every ``(first, second,
        condition)`` triple, as one binary clause each through the trusted
        path (an implies() gate would write an OR gate per pair just to
        assert its output true).  The condition is a symbolic address
        comparison or fence guard, never an order variable, so the two
        literals are distinct."""
        order = self.encoding.table
        n = len(self.accesses)
        buf: list[int] = []
        for first, second, condition in triples:
            lit = order[first.index * n + second.index]
            if lit != 1:
                buf += (-condition, lit)
        self.ctx.circuit.cnf.add_clauses_trusted_flat(
            buf, [2] * (len(buf) // 2)
        )

    def _assert_atomic_blocks(self) -> None:
        # No access of another thread interleaves with an atomic block
        # (program order inside the block is a static edge).  The triple
        # count is the layer's largest clause source after transitivity,
        # so the literals come straight from the order table (a pair whose
        # order is statically impossible was never seeded, and its clause
        # is vacuous), and the clauses go out through the trusted bulk
        # path — at most two distinct order literals each, so no
        # normalization is needed.
        order = self.encoding.table
        n = len(self.accesses)
        buf: list[int] = []
        lengths: list[int] = []
        push = buf.append
        push_len = lengths.append
        for first, second, other in self._exclusion_triples:
            first_other = order[first.index * n + other.index]
            other_second = order[other.index * n + second.index]
            if first_other == -1 or other_second == -1:
                continue  # one of the two orders is statically impossible
            count = 0
            if first_other != 1:
                push(-first_other)
                count += 1
            if other_second != 1:
                push(-other_second)
                count += 1
            # count == 0 (both orders statically forced) appends the empty
            # clause, marking the formula unsatisfiable.
            push_len(count)
        if lengths:
            self.ctx.circuit.cnf.add_clauses_trusted_flat(buf, lengths)

    def _assert_operation_atomicity(self) -> None:
        """Seriality: accesses of different invocations never interleave.

        ``order <-> OP`` goes out as two clauses directly; a static pair
        degenerates to a unit constraint on the OP variable (an ``iff()``
        gate would write an XOR cone per access pair just to assert its
        output).  Clauses are batched through the trusted path — every
        clause pairs the OP literal with a distinct order literal.
        """
        new_var = self.ctx.circuit.cnf.new_var
        order = self.encoding.table
        n = len(self.accesses)
        buf: list[int] = []
        lengths: list[int] = []
        push = buf.append
        push_len = lengths.append
        for group_a, group_b in self.table.invocation_group_pairs:
            first_inv = group_a[0].invocation
            second_inv = group_b[0].invocation
            op_lit = new_var(f"OP[{first_inv},{second_inv}]")
            for x in group_a:
                row = x.index * n
                for y in group_b:
                    lit = order[row + y.index]
                    if lit == 1:
                        push(op_lit)
                        push_len(1)
                    elif lit == -1:
                        push(-op_lit)
                        push_len(1)
                    else:
                        push(-lit)
                        push(op_lit)
                        push_len(2)
                        push(lit)
                        push(-op_lit)
                        push_len(2)
        if lengths:
            self.ctx.circuit.cnf.add_clauses_trusted_flat(buf, lengths)

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
        return self.encoding.resolved(store.index, load.index) != -1

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
        cnf = self.ctx.circuit.cnf
        new_var = cnf.new_var
        addr_eq = self.ctx.addr_eq
        initial_value_term = self.ctx.initial_value_term
        order = self.encoding.table
        n = len(self.accesses)
        sources = self.encoding.sources
        buf: list[int] = []
        lengths: list[int] = []
        push = buf.append
        extend = buf.extend
        push_len = lengths.append
        for load, candidates in self._value_candidates:
            if load.guard == Circuit.FALSE:
                continue
            load_index = load.index
            # (store, negated visibility literals) of every candidate that
            # can be visible; an empty list means "always visible".
            visible: list[tuple[MemoryAccess, list[int]]] = []
            for store in candidates:
                if self._forwarded(store, load):
                    before = 1
                else:
                    before = order[store.index * n + load_index]
                negated: list[int] = []
                for lit in (store.guard, addr_eq(load, store), before):
                    if lit == 1:
                        continue
                    if lit == -1 or lit in negated:
                        break  # FALSE, or complementary to another conjunct
                    if -lit not in negated:
                        negated.append(-lit)
                else:
                    visible.append((store, negated))

            load_bits = load.value.bits
            selectors: list[tuple[int | None, int]] = []
            for store, negated in visible:
                # Bitwise value equality as clause tails under rf(store);
                # None when the two values can never be equal.
                tails: list[tuple[int, ...]] | None = []
                # A missing high bit of the narrower value is FALSE (-1).
                for a, s in zip_longest(
                    load_bits, store.value.bits, fillvalue=-1
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
                selectors.append((store.index, rf))
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
                    lit = order[other.index * n + store_index]
                    if lit == 1:
                        continue
                    push(-rf)
                    extend(other_negated)
                    if lit == -1:
                        push_len(len(other_negated) + 1)
                    else:
                        push(lit)
                        push_len(len(other_negated) + 2)

            # No rf(init) when the initial value can never match or some
            # candidate is always visible.
            init_term = initial_value_term(load)
            if init_term != Circuit.FALSE and all(n for _, n in visible):
                rf = new_var()
                selectors.insert(0, (None, rf))
                for _, negated in visible:
                    push(-rf)
                    extend(negated)
                    push_len(len(negated) + 1)
                if init_term != Circuit.TRUE:
                    push(-rf)
                    push(init_term)
                    push_len(2)

            sources[load_index] = selectors
            count = len(selectors)
            if load.guard != Circuit.TRUE:
                push(-load.guard)
                count += 1
            extend(rf for _, rf in selectors)
            push_len(count)
        cnf.add_clauses_trusted_flat(buf, lengths)
        self.value_clause_count += len(lengths)

    def _forwarded(self, store: MemoryAccess, load: MemoryAccess) -> bool:
        """Store-queue forwarding: a program-order-earlier store of the
        load's own thread is visible regardless of the global order."""
        return (
            self.model.store_forwarding
            and store.thread == load.thread
            and store.seq < load.seq
        )


# ------------------------------------------------------ the order builder


def build_order(
    n: int,
    reach: Sequence[int],
    allowed: int,
    seeds: Iterable[tuple[int, int]],
    first_var: int,
) -> tuple[array, array, array]:
    """The live order pairs and transitivity clauses of one layer.

    Inputs: the access count ``n``; ``reach[i]``, the bitmask of accesses
    statically after access ``i`` (transitively closed and acyclic);
    ``allowed``, the bitmask of the support graph's vertices (the non-init
    accesses: they have only outgoing static edges, so no cycle passes
    through them); the unordered seed pairs ``(i, j)``, ``i < j``, that
    some axiom mentions and no static edge orders; and the first free
    variable.

    The support graph has an edge for every seed and static pair between
    vertices.  It is chordalized by min-degree elimination: a lazy
    ``(degree, vertex)`` heap whose stale entries are re-pushed with the
    settled degree, so the pop order matches an eager min-scan, and an
    ascending walk over each eliminated vertex's neighbours that adds the
    missing pairs (the *fill*).  Seeds and fill are the live pairs,
    numbered ``first_var, first_var + 1, ...`` in sorted order.  Each
    elimination triangle ``(v, a, b)`` gets its two no-3-cycle clauses
    (``v -> a -> b -> v``, then ``v -> b -> a -> v``) with statically
    known edges folded away: a known edge drops its literal, and a cycle a
    static edge already breaks emits nothing.  Every cycle of a chordal
    graph has a chord, so acyclic triangles make the whole order acyclic.

    Returns ``(pairs, literals, lengths)``: the live pairs flat as ``i0,
    j0, i1, j1, ...``, the clauses' literals back to back, and each
    clause's length.  :func:`repro.sat.native.build_order` computes the
    same three arrays in C, and the encoder calls only that one: this twin
    is the reference the byte-identity tests of
    ``tests/encoding/test_order_builder.py`` compare it with.  Raises
    :class:`ValueError` on a seed outside ``0 <= i < j < n`` or a
    statically ordered one.
    """
    allowed &= (1 << n) - 1
    vertices = [p for p in range(n) if (allowed >> p) & 1]
    # Adjacency as one bitmask per vertex: membership tests, edge updates
    # and degree counts (popcount) all beat set operations in this loop,
    # and iterating set bits in ascending order gives the sorted neighbour
    # walk the fill computation needs for determinism.
    adjacency = [0] * n
    live: set[tuple[int, int]] = set()
    for i, j in seeds:
        if not 0 <= i < j < n or (reach[i] >> j) & 1 or (reach[j] >> i) & 1:
            raise ValueError(
                f"seed pair {(i, j)} out of range or statically ordered"
            )
        live.add((i, j))
        if (allowed >> i) & 1 and (allowed >> j) & 1:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    for i in vertices:
        mask = reach[i] & allowed
        adjacency[i] |= mask
        while mask:
            low = mask & -mask
            adjacency[low.bit_length() - 1] |= 1 << i
            mask ^= low

    triangles: list[tuple[int, int, int]] = []
    append = triangles.append
    alive = set(vertices)
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
                    # A fill pair (a < b by the ascending walk).  Static
                    # pairs between vertices are edges from the start, so
                    # a missing edge is never static.
                    adjacency[a] |= b_bit
                    adjacency[b] |= a_bit
                    live.add((a, b))
        adjacency[vertex] = 0
        for a in neighbors:
            push(heap, (adjacency[a].bit_count(), a))

    # The literal of "first <M second" for every pair a triangle can name.
    order: list[int] = [0] * (n * n)
    for i in vertices:
        mask = reach[i] & allowed
        while mask:
            low = mask & -mask
            j = low.bit_length() - 1
            mask ^= low
            order[i * n + j] = 1
            order[j * n + i] = -1
    pairs = sorted(live)
    for var, (i, j) in enumerate(pairs, first_var):
        order[i * n + j] = var
        order[j * n + i] = -var

    buf: list[int] = []
    lengths: list[int] = []
    push = buf.append
    push_len = lengths.append
    for v, a, b in triangles:
        row = v * n
        e1 = order[row + a]  # v <M a
        e2 = order[a * n + b]  # a <M b
        e3 = order[row + b]  # v <M b
        # cycle v -> a -> b -> v: not(e1 and e2 and not e3)
        if not (e1 == -1 or e2 == -1 or e3 == 1):
            count = 0
            if e1 != 1:
                push(-e1)
                count += 1
            if e2 != 1:
                push(-e2)
                count += 1
            if e3 != -1:
                push(e3)
                count += 1
            push_len(count)
        # cycle v -> b -> a -> v: not(e3 and not e2 and not e1)
        if not (e3 == -1 or e2 == 1 or e1 == 1):
            count = 0
            if e3 != 1:
                push(-e3)
                count += 1
            if e2 != -1:
                push(e2)
                count += 1
            if e1 != -1:
                push(e1)
                count += 1
            push_len(count)
    return (
        array("i", chain.from_iterable(pairs)),
        array("i", buf),
        array("b", lengths),
    )
