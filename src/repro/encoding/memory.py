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
linearizable — order).  One native build per layer
(:func:`repro.sat.native.build_order`, ``order.c``) seeds the value
axioms' pairs, triangulates, numbers the live pairs and writes those
clauses; it stays open while the Python emitters write the same-address,
fence, atomic-block and Seriality clauses, and then writes the value axioms
over its own literal table.  The pure-Python builders the byte-identity
tests compare it with live in ``tests/encoding/order_reference.py``.
Pairs that appear in no constraint get no variable at all; counterexample
decoding topologically sorts the remaining partial order
(:meth:`repro.encoding.formula.EncodedTest.decode_memory_order`).
The operational enumerator (:mod:`repro.oracle.enumerator`) and the
reads-from engine (:mod:`repro.rfcheck`) check the resulting outcome sets
independently.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat

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
        #: Program-order successor masks of the non-init threads, one list
        #: per (earlier kind, later kind) class: a layer ORs the classes its
        #: model preserves.
        self.program_order = {
            (first, second): [0] * len(self.accesses)
            for first in ("load", "store")
            for second in ("load", "store")
        }
        for first, second in self.same_thread_pairs:
            if first.thread != INIT_THREAD:
                self.program_order[first.kind, second.kind][first.index] |= (
                    1 << second.index
                )
        self.init_accesses = [
            a for a in self.accesses if a.thread == INIT_THREAD
        ]
        self.other_accesses = [
            a for a in self.accesses if a.thread != INIT_THREAD
        ]
        #: Bitmask of the non-init access indices: the vertices of every
        #: layer's support graph (:func:`repro.sat.native.build_order`).
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
        #: ``(guard, width, *value bits)`` of every access, by index: the
        #: tail of its records in a layer's value descriptor
        #: (:meth:`MemoryModelEncoder._value_loads`).
        self.value_tails = [
            (a.guard, len(a.value.bits), *a.value.bits) for a in self.accesses
        ]
        self.core_successors = self._core_successors()
        #: Same-thread (earlier, store) pairs whose address comparison is
        #: the constant TRUE — static edges of every model that orders
        #: same-address stores.  Filled by the skeleton's term prewarm,
        #: which builds those comparisons.
        self.const_edges: list[tuple[MemoryAccess, MemoryAccess]] = []
        #: (earlier, store, address comparison) of the same-thread pairs
        #: whose comparison is symbolic and that the core order leaves
        #: open: the conditional half of the same-address axiom.  Filled
        #: by the same prewarm.
        self.same_address_pairs: list[
            tuple[MemoryAccess, MemoryAccess, int]
        ] = []
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
        ordered_when, exclusions = self._open_constraints()
        # The native build stays open while the Python emitters write their
        # clauses: the value axioms come last, over its literal table.
        with self._build_order(
            self._seed_pairs(ordered_when, exclusions)
        ) as build:
            self._create_live_order_variables(build)
            self._assert_ordered_when(ordered_when)
            self._assert_atomic_blocks(exclusions)
            if self.model.operation_atomicity:
                self._assert_operation_atomicity()
            self._assert_value_axioms(build)
        return self.encoding

    @property
    def order_pair_count(self) -> int:
        n = len(self.accesses)
        return n * (n - 1) // 2

    # ----------------------------------------------------- static resolution

    def _resolve_static_orders(self) -> None:
        """Precompute every unconditionally ordered pair and its closure:
        the skeleton's core order plus, under a model that orders
        same-address stores, the constant same-address store pairs (the
        static half of that axiom), and the program-order classes the
        model preserves.  Each closure edge fills its two table entries
        with the constant literals."""
        table = self.table
        successors = list(table.core_successors)
        if self.model.same_address_store_order:
            table.add_edges(successors, table.const_edges)
        for kinds in self.model.preserved_program_order:
            for p, mask in enumerate(table.program_order[kinds]):
                successors[p] |= mask
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

    # ------------------------------------------------------ open constraints

    def _open_constraints(self):
        """The same-address, fence and atomic-block constraints the static
        order leaves open, listed once for the seeds and the clauses.  A
        position is an index into the order table.

        * ``(position, condition)`` for ``condition -> first <M second``:
          the symbolic same-address pairs (under a model that orders
          same-address stores), then the fence pairs under their guards.
          A pair the model preserves, or whose fence always executes, is a
          static edge and left out.
        * ``(first <M other, other <M second)`` position pairs for atomic
          non-interleaving, one per block pair and access ``other`` of
          another thread, unless an order is statically impossible.
        """
        table = self.table
        order = self.encoding.table
        n = len(self.accesses)
        pairs = table.fence_pairs
        if self.model.same_address_store_order:
            pairs = table.same_address_pairs + pairs
        ordered_when = [
            (position, condition)
            for first, second, condition in pairs
            if order[position := first.index * n + second.index] != 1
        ]
        exclusions = []
        for members in table.atomic_groups:
            thread = members[0].thread
            outside = [a.index for a in self.accesses if a.thread != thread]
            for i, first in enumerate(members):
                row = first.index * n
                for second in members[i + 1:]:
                    for other in outside:
                        before = row + other
                        after = other * n + second.index
                        if order[before] != -1 and order[after] != -1:
                            exclusions.append((before, after))
        return ordered_when, exclusions

    def _seed_pairs(self, ordered_when, exclusions) -> set[tuple[int, int]]:
        """Every non-static pair the same-address, fence, atomic-block and
        Seriality axioms mention, read from the open constraints the
        emitters write (the build seeds the value axioms' pairs itself)."""
        order = self.encoding.table
        n = len(self.accesses)
        mentioned = [position for position, _ in ordered_when]
        mentioned += chain.from_iterable(exclusions)
        if self.model.operation_atomicity:
            mentioned += [
                x.index * n + y.index
                for group_a, group_b in self.table.invocation_group_pairs
                for x in group_a
                for y in group_b
            ]
        positions = {p for p in mentioned if order[p] is None}
        return {
            (i, j) if i < j else (j, i)
            for i, j in map(divmod, positions, repeat(n))
        }

    def _build_order(self, seeds):
        """Open the layer's build in the native library
        (:func:`repro.sat.native.build_order`): it seeds the value axioms'
        pairs from the value descriptor, triangulates the support graph
        and numbers the live pairs from the CNF's next free variable."""
        # Imported here, as the backends do: the binding pulls in ctypes,
        # which no import of the encoder needs to pay for.
        from repro.sat import native

        return native.build_order(
            len(self.accesses), self._static_reach, self.table.other_mask,
            seeds, self._value_loads(), self.ctx.circuit.cnf.num_vars + 1,
        )

    def _create_live_order_variables(self, build) -> None:
        """Mint variables only for pairs that can influence outcomes, then
        assert pruned transitivity over the triangulated support graph.

        The build has numbered the live pairs and written the clauses:
        the layer mints the pairs' variables in order and installs the
        clauses with their ends as the build wrote them.
        """
        cnf = self.ctx.circuit.cnf
        n = len(self.accesses)
        pairs, literals, ends = build.transitivity(cnf.literal_count)
        order = self.encoding.table
        flat = iter(pairs)
        for var, i, j in zip(cnf.new_vars(len(pairs) // 2), flat, flat):
            order[i * n + j] = var
            order[j * n + i] = -var
        self.order_var_count = len(pairs) // 2
        cnf.add_clauses_trusted_ends(literals, ends)
        self.transitivity_clause_count += len(ends)

    # ------------------------------------------------------------ the axioms

    def _assert_ordered_when(self, ordered_when) -> None:
        """``condition -> first <M second`` for every open same-address and
        fence constraint, as one binary clause each through the trusted
        path (an implies() gate would write an OR gate per pair just to
        assert its output true).  Every such pair was seeded, so its order
        is a variable, and the condition is a symbolic address comparison
        or fence guard, never an order variable: the two literals are
        distinct."""
        order = self.encoding.table
        buf: list[int] = []
        for position, condition in ordered_when:
            buf += (-condition, order[position])
        self.ctx.circuit.cnf.add_clauses_trusted_flat(
            buf, [2] * len(ordered_when)
        )

    def _assert_atomic_blocks(self, exclusions) -> None:
        # No access of another thread interleaves with an atomic block
        # (program order inside the block is a static edge): one clause
        # (not first<other) or (not other<second) per open exclusion.  The
        # exclusion count is the layer's largest clause source after
        # transitivity, so the literals come straight from the order table
        # and the clauses go out through the trusted bulk path — at most
        # two distinct order literals each, so no normalization is needed.
        order = self.encoding.table
        buf: list[int] = []
        lengths: list[int] = []
        push = buf.append
        push_len = lengths.append
        for before, after in exclusions:
            first_other = order[before]
            other_second = order[after]
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
        gate would write an XOR gate per access pair just to assert its
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

    def _value_loads(self) -> array:
        """The layer's value descriptor, laid out as ``order.c`` reads it.

        One record per load, in index order: its index, its initial-value
        term, its candidate count and its value tail
        (:attr:`AccessTable.value_tails`).  Then one record per candidate
        store that can be visible to it: the store's index, whether the
        store is forwarded to the load, their address equality and the
        store's value tail.  A store the static order puts after the load
        is never visible unless forwarded, and is left out.  The
        skeleton's prewarm has built every term read here, so the gather
        mints no variable and writes no clause.
        """
        reach = self._static_reach
        tails = self.table.value_tails
        forwarding = self.model.store_forwarding
        addr_eq = self.ctx.addr_eq
        initial_value_term = self.ctx.initial_value_term
        out: list[int] = []
        for load, stores in self.table.candidates:
            after = reach[load.index]
            thread, seq = load.thread, load.seq
            count_at = len(out) + 2
            out += (load.index, initial_value_term(load), 0)
            out += tails[load.index]
            count = 0
            for store in stores:
                # Store-queue forwarding: a program-order-earlier store of
                # the load's own thread is visible regardless of <M.
                forwarded = (
                    forwarding and store.thread == thread and store.seq < seq
                )
                if forwarded or not (after >> store.index) & 1:
                    out += (store.index, forwarded, addr_eq(load, store))
                    out += tails[store.index]
                    count += 1
            out[count_at] = count
        return array("i", out)

    def _assert_value_axioms(self, build) -> None:
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

        The build writes these clauses in ``order.c``, from the value
        descriptor and its literal table: each candidate's visibility
        conjuncts are normalized once (constants folded, duplicates
        merged, a candidate with a FALSE or complementary conjunct is never
        visible and dropped), a candidate whose value can never equal the
        load's gets no selector, and a load whose guard is FALSE gets no
        clause.  Selectors are numbered from the CNF's next free variable,
        each load's initial-value selector last but listed first.
        """
        cnf = self.ctx.circuit.cnf
        literals, ends, selectors, minted = build.value_axioms(
            cnf.num_vars + 1, cnf.literal_count
        )
        cnf.num_vars += minted
        cnf.add_clauses_trusted_ends(literals, ends)
        self.value_clause_count += len(ends)
        sources = self.encoding.sources
        records = selectors.tolist()
        end = 0
        while end < len(records):
            load, count = records[end], records[end + 1]
            start = end + 2
            end = start + 2 * count
            sources[load] = [
                (None if source < 0 else source, literal)
                for source, literal in zip(
                    records[start:end:2], records[start + 1:end:2]
                )
            ]
