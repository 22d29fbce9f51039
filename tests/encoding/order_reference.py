"""The pure-Python reference builders of the memory-order layer.

The encoder builds each layer's live order pairs, transitivity clauses and
value axioms in ``order.c`` (:func:`repro.sat.native.build_order`).  The
builders here compute the same outputs step by step, and
``test_order_builder.py`` holds the two to byte identity:

* :func:`build_order` -- the live pairs and the transitivity clauses;
* :func:`value_seeds` -- the pairs the value axioms name;
* :func:`value_axioms` -- the value axioms' clauses and selectors;
* :class:`ReferenceBuild` -- all three behind the interface of
  :class:`repro.sat.native.OrderBuild`.

The value descriptor is the flat ``array("i")`` that
:meth:`repro.encoding.memory.MemoryModelEncoder._value_loads` gathers;
:func:`parse_loads` and :func:`flatten_loads` convert it to and from
:class:`Load` records.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations, zip_longest
from typing import Iterable, Sequence


@dataclass
class Candidate:
    """A candidate store of one load, as the descriptor lists it."""

    store: int
    forwarded: bool
    addr_eq: int
    guard: int
    bits: tuple[int, ...]


@dataclass
class Load:
    """A load and its candidate stores, as the descriptor lists them."""

    index: int
    init: int
    guard: int
    bits: tuple[int, ...]
    candidates: list[Candidate] = field(default_factory=list)


def flatten_loads(loads: Iterable[Load]) -> array:
    """The descriptor of ``loads``: per load its index, initial-value term,
    candidate count, guard, width and bits; then per candidate its store
    index, forwarded flag, address equality, guard, width and bits."""
    out = array("i")
    for load in loads:
        out.extend((load.index, load.init, len(load.candidates), load.guard,
                    len(load.bits), *load.bits))
        for c in load.candidates:
            out.extend((c.store, c.forwarded, c.addr_eq, c.guard,
                        len(c.bits), *c.bits))
    return out


def parse_loads(flat: Sequence[int]) -> list[Load]:
    """The :class:`Load` records of a descriptor."""
    flat = list(flat)
    position = 0

    def take(count: int) -> list[int]:
        nonlocal position
        position += count
        return flat[position - count:position]

    loads = []
    while position < len(flat):
        index, init, count, guard, width = take(5)
        load = Load(index, init, guard, tuple(take(width)))
        for _ in range(count):
            store, forwarded, addr_eq, guard, width = take(5)
            load.candidates.append(Candidate(
                store, bool(forwarded), addr_eq, guard, tuple(take(width))
            ))
        loads.append(load)
    return loads


def value_seeds(reach: Sequence[int], loads: Iterable[Load]):
    """The unordered pairs the value axioms name and no static edge
    orders: each candidate with its load unless forwarded, and every two
    candidates of one load.  A load whose guard is FALSE seeds its pairs
    too.  A store paired with itself is kept, so :func:`build_order`
    rejects it."""
    seeds: set[tuple[int, int]] = set()
    for load in loads:
        pairs = [
            (c.store, load.index) for c in load.candidates if not c.forwarded
        ]
        pairs += [
            (first.store, second.store)
            for first, second in combinations(load.candidates, 2)
        ]
        for i, j in pairs:
            if not ((reach[i] >> j) & 1 or (reach[j] >> i) & 1):
                seeds.add((i, j) if i < j else (j, i))
    return seeds


def order_table(
    n: int, reach: Sequence[int], pairs: Sequence[int], first_var: int
) -> list[int]:
    """The literal of ``i <M j`` at ``i * n + j``: 1 or -1 for a static
    pair, the live pair's variable (negated the other way round), and 0
    for a dead pair or the diagonal."""
    table = [0] * (n * n)
    for i, row in enumerate(reach):
        for j in range(n):
            if (row >> j) & 1:
                table[i * n + j] = 1
                table[j * n + i] = -1
    for var, (i, j) in enumerate(zip(pairs[::2], pairs[1::2]), first_var):
        table[i * n + j] = var
        table[j * n + i] = -var
    return table


def value_axioms(
    n: int, table: Sequence[int], loads: Iterable[Load], first_var: int
) -> tuple[list[int], list[int], list[int], int]:
    """The value axioms over an order table, as
    :meth:`repro.encoding.memory.MemoryModelEncoder._assert_value_axioms`
    specifies them.

    Returns ``(literals, lengths, selectors, count)``: the clauses' literals
    back to back, each clause's length, one selector record per load whose
    guard is not FALSE (its index, its selector count, then ``source,
    selector`` per selector, ``-1`` for the initial value), and how many
    selectors were numbered from ``first_var`` on.  Raises
    :class:`ValueError` when a visibility or maximality clause would name a
    dead pair.
    """
    next_var = first_var
    buf: list[int] = []
    lengths: list[int] = []
    records: list[int] = []
    push = buf.append
    extend = buf.extend
    push_len = lengths.append

    def order(i: int, j: int) -> int:
        lit = table[i * n + j]
        if lit == 0:
            raise ValueError(f"the pair {(i, j)} was never seeded")
        return lit

    for load in loads:
        if load.guard == -1:
            continue
        # (candidate, negated visibility literals) of every candidate that
        # can be visible; an empty list means "always visible".
        visible: list[tuple[Candidate, list[int]]] = []
        for c in load.candidates:
            before = 1 if c.forwarded else order(c.store, load.index)
            negated: list[int] = []
            for lit in (c.guard, c.addr_eq, before):
                if lit == 1:
                    continue
                if lit == -1 or lit in negated:
                    break  # FALSE, or complementary to another conjunct
                if -lit not in negated:
                    negated.append(-lit)
            else:
                visible.append((c, negated))

        selectors: list[tuple[int, int]] = []
        for position, (c, negated) in enumerate(visible):
            # Bitwise value equality as clause tails under rf(store); None
            # when the two values can never be equal.
            tails: list[tuple[int, ...]] | None = []
            # A missing high bit of the narrower value is FALSE (-1).
            for a, s in zip_longest(load.bits, c.bits, fillvalue=-1):
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
            rf = next_var
            next_var += 1
            selectors.append((c.store, rf))
            for lit in negated:
                push(-rf)
                push(-lit)
                push_len(2)
            for tail in tails:
                push(-rf)
                extend(tail)
                push_len(len(tail) + 1)
            # Maximality: every other visible candidate precedes this one.
            for other_position, (other, other_negated) in enumerate(visible):
                if other_position == position:
                    continue
                lit = order(other.store, c.store)
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
        if load.init != -1 and all(negated for _, negated in visible):
            rf = next_var
            next_var += 1
            selectors.insert(0, (-1, rf))
            for _, negated in visible:
                push(-rf)
                extend(negated)
                push_len(len(negated) + 1)
            if load.init != 1:
                push(-rf)
                push(load.init)
                push_len(2)

        records += (load.index, len(selectors))
        records += chain.from_iterable(selectors)
        count = len(selectors)
        if load.guard != 1:
            push(-load.guard)
            count += 1
        extend(rf for _, rf in selectors)
        push_len(count)
    return buf, lengths, records, next_var - first_var


def ends_of(lengths: Iterable[int], literal_base: int) -> array:
    """Clause ends counted from ``literal_base``, as ``order.c`` writes
    them."""
    return array("q", accumulate(lengths, initial=literal_base))[1:]


class ReferenceBuild:
    """The reference builders behind the interface of
    :class:`repro.sat.native.OrderBuild`, from the arguments of
    :func:`repro.sat.native.build_order`."""

    def __init__(self, n, reach, allowed, seeds, loads, first_var) -> None:
        self.n = n
        self.reach = list(reach)
        self.loads = parse_loads(loads)
        seeds = set(seeds) | value_seeds(self.reach, self.loads)
        self.pairs, self.literals, self.lengths = build_order(
            n, self.reach, allowed, seeds, first_var
        )
        self.first_var = first_var
        self.closed = False

    def __enter__(self) -> "ReferenceBuild":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self.closed = True

    def transitivity(self, literal_base: int):
        return (
            self.pairs, self.literals, ends_of(self.lengths, literal_base)
        )

    def value_axioms(self, first_var: int, literal_base: int):
        table = order_table(self.n, self.reach, self.pairs, self.first_var)
        literals, lengths, selectors, count = value_axioms(
            self.n, table, self.loads, first_var
        )
        return (
            array("i", literals), ends_of(lengths, literal_base),
            array("i", selectors), count,
        )


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
    clause's length.  Raises :class:`ValueError` on a seed outside
    ``0 <= i < j < n`` or a statically ordered one.
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
