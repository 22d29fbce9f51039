"""The memory-order builder in C writes the formula of its Python reference.

Each per-model layer hands its static order, its support-graph vertices
(the non-init accesses), the seed pairs of its same-address, fence,
atomic-block and Seriality axioms and its value descriptor to one build in
``order.c`` (:func:`repro.sat.native.build_order`).  The build returns the
live pairs and the transitivity clauses, and later the value axioms and
their reads-from selectors.  The pure-Python builders of
``order_reference.py`` are the reference.  These tests hold the two to
byte identity (live pairs, literals, clause ends, selectors and the count
of minted variables):

* on the inputs of every small-catalog layer (every implementation,
  fenced and unfenced, each small test, five models);
* on random inputs up to 130 accesses, so the native bit sets span three
  64-bit words, with random value descriptors.

They also pin what the native path relies on: gathering a layer's value
descriptor mints no variable and writes no clause, the binding rejects a
malformed descriptor, and the build is freed when an emitter raises.

The library is required, so a failed build fails these tests.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.datatypes.registry import (
    base_implementations,
    category_of,
    get_implementation,
)
from repro.encoding import compile_test, encode_test
from repro.encoding.formula import skeleton_for
from repro.encoding.memory import MemoryModelEncoder
from repro.harness.catalog import get_test
from repro.harness.catalog import test_names as catalog_test_names
from repro.memorymodel.base import get_model
from repro.sat import native

from order_reference import (
    Candidate,
    Load,
    ReferenceBuild,
    build_order as reference_build_order,
    flatten_loads,
)

MODELS = ["serial", "sc", "tso", "pso", "relaxed"]

#: Every small-catalog implementation, fenced and unfenced.
IMPLEMENTATIONS = [
    name
    for base in base_implementations()
    for name in (base, f"{base}-unfenced")
]


@pytest.fixture(scope="module")
def small_tests():
    """``(test name, compiled test)`` of every small test of an
    implementation, compiled once for every catalog test below."""
    compiled: dict[str, list] = {}

    def of(implementation: str):
        if implementation not in compiled:
            category = category_of(implementation)
            compiled[implementation] = [
                (name, compile_test(
                    get_implementation(implementation), get_test(category, name)
                ))
                for name in catalog_test_names(category, "small")
            ]
        return compiled[implementation]

    yield of
    compiled.clear()


def _layer_inputs(compiled, model: str):
    """The build's arguments as the ``model`` layer computes them, and the
    CNF's size before and after the value descriptor was gathered."""
    skeleton, _ = skeleton_for(compiled)
    encoder = MemoryModelEncoder(
        skeleton.context.fork(), get_model(model), skeleton.table
    )
    encoder._resolve_static_orders()
    cnf = encoder.ctx.circuit.cnf
    before = (cnf.num_vars, len(cnf))
    loads = encoder._value_loads()
    after = (cnf.num_vars, len(cnf))
    inputs = (
        len(encoder.accesses),
        encoder._static_reach,
        skeleton.table.other_mask,
        encoder._seed_pairs(*encoder._open_constraints()),
        loads,
        cnf.num_vars + 1,
    )
    return inputs, before, after


def _outputs(build_class, inputs, value_first_var: int, literal_base: int):
    """Everything a build hands back, as lists."""
    with build_class(*inputs) as build:
        pairs, literals, ends = build.transitivity(literal_base)
        value_literals, value_ends, selectors, count = build.value_axioms(
            value_first_var, literal_base + len(literals)
        )
    return {
        "pairs": list(pairs),
        "transitivity literals": list(literals),
        "transitivity ends": list(ends),
        "value literals": list(value_literals),
        "value ends": list(value_ends),
        "selectors": list(selectors),
        "minted": count,
    }


def _assert_same_build(inputs, value_first_var: int, literal_base: int):
    expected = _outputs(ReferenceBuild, inputs, value_first_var, literal_base)
    built = _outputs(native.build_order, inputs, value_first_var, literal_base)
    for part, value in expected.items():
        assert built[part] == value, part
    return built


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_native_and_python_build_the_same_layers(implementation,
                                                 small_tests):
    layers = 0
    for test_name, compiled in small_tests(implementation):
        for model in MODELS:
            inputs, _, _ = _layer_inputs(compiled, model)
            first_var = inputs[-1]
            built = _assert_same_build(
                inputs, first_var + 5000, 10_000_000 + layers
            )
            assert built["minted"] > 0, (implementation, test_name, model)
            layers += 1
    assert layers >= 2 * len(MODELS)


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_gathering_the_value_descriptor_writes_nothing(implementation,
                                                       small_tests):
    """Every term the descriptor reads was built by the skeleton's
    prewarm, so the gather before the order build cannot shift a variable
    number or a clause."""
    for test_name, compiled in small_tests(implementation):
        for model in MODELS:
            _, before, after = _layer_inputs(compiled, model)
            assert after == before, (implementation, test_name, model)


# ---------------------------------------------------------- random inputs

#: Literals of the random descriptors: the constants and a few variables,
#: so conjuncts repeat and complement each other.
_LITERALS = [1, -1, 2, -2, 3, -3, 4, -4, 5, -5]


def _random_order(rng: random.Random, n: int, edge_p: float):
    """A transitively closed acyclic static order: random edges along a
    random permutation, then closed."""
    rank = list(range(n))
    rng.shuffle(rank)
    successors = [0] * n
    for i in range(n):
        for j in range(n):
            if rank[i] < rank[j] and rng.random() < edge_p:
                successors[i] |= 1 << j
    reach = [0] * n
    for i in sorted(range(n), key=lambda p: rank[p], reverse=True):
        row = successors[i]
        pending = successors[i]
        while pending:
            low = pending & -pending
            row |= reach[low.bit_length() - 1]
            pending ^= low
        reach[i] = row
    return reach


def _random_bits(rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.choice(_LITERALS) for _ in range(rng.randint(0, 3)))


def _random_loads(rng: random.Random, n: int, load_p: float,
                  candidate_p: float) -> list[Load]:
    """Random loads with distinct candidate stores: TRUE, FALSE and
    symbolic guards, forwarded candidates, repeated and complementary
    conjuncts, mismatched widths and constant bits."""
    loads = []
    for index in range(n):
        if rng.random() >= load_p:
            continue
        load = Load(index, rng.choice(_LITERALS), rng.choice(_LITERALS),
                    _random_bits(rng))
        for store in range(n):
            if store != index and rng.random() < candidate_p:
                load.candidates.append(Candidate(
                    store, rng.random() < 0.2, rng.choice(_LITERALS),
                    rng.choice(_LITERALS), _random_bits(rng),
                ))
        loads.append(load)
    return loads


def _random_inputs(n: int, seed: int, edge_p: float, vertex_p: float,
                   seed_p: float, load_p: float, candidate_p: float):
    """A static order, a random vertex mask, random seed pairs that no
    static edge orders and a random value descriptor."""
    rng = random.Random(seed)
    reach = _random_order(rng, n, edge_p)
    allowed = sum(1 << p for p in range(n) if rng.random() < vertex_p)
    seeds = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not (reach[i] >> j) & 1
        and not (reach[j] >> i) & 1
        and rng.random() < seed_p
    }
    return reach, allowed, seeds, _random_loads(rng, n, load_p, candidate_p)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 130),
    seed=st.integers(0, 2**32 - 1),
    edge_p=st.sampled_from([0.0, 0.005, 0.02, 0.1]),
    vertex_p=st.sampled_from([0.5, 0.9, 1.0]),
    seed_p=st.sampled_from([0.0, 0.01, 0.03]),
    load_p=st.sampled_from([0.0, 0.1, 0.3]),
    candidate_p=st.sampled_from([0.0, 0.02, 0.1]),
    first_var=st.integers(1, 10**6),
)
# Loads with 129 candidates each, more than an int8 counts, over no
# support-graph vertex, so nothing is triangulated.
@example(n=130, seed=1, edge_p=0.0, vertex_p=0.0, seed_p=0.0, load_p=0.02,
         candidate_p=1.0, first_var=1000)
def test_random_inputs_build_identically(
    n, seed, edge_p, vertex_p, seed_p, load_p, candidate_p, first_var
):
    reach, allowed, seeds, loads = _random_inputs(
        n, seed, edge_p, vertex_p, seed_p, load_p, candidate_p
    )
    given_seeds = set(seeds)
    inputs = (n, reach, allowed, seeds, flatten_loads(loads), first_var)
    built = _assert_same_build(inputs, first_var + 4 * n * n + 1, 12_345)
    assert seeds == given_seeds  # neither builder touches the caller's set
    live = list(zip(built["pairs"][::2], built["pairs"][1::2]))
    assert live == sorted(set(live)) and given_seeds <= set(live)
    top = first_var + len(live)
    assert all(1 <= abs(lit) < top for lit in built["transitivity literals"])
    ends = [12_345, *built["transitivity ends"]]
    assert all(a <= b for a, b in zip(ends, ends[1:]))
    assert ends[-1] == 12_345 + len(built["transitivity literals"])


def test_a_load_with_more_candidates_than_an_int8_holds():
    """The "an executed load has a selector" clause has one literal per
    candidate whose value can match, plus the guard: here 130.  No access
    is a support-graph vertex, so nothing is triangulated."""
    n = 130
    load = Load(0, -1, 2, (3,), [
        Candidate(store, False, 1, 1, (3,)) for store in range(1, n)
    ])
    inputs = (n, [0] * n, 0, set(), flatten_loads([load]), 1000)
    built = _assert_same_build(inputs, 10**6, 0)
    assert built["minted"] == n - 1
    last = built["value ends"][-1] - built["value ends"][-2]
    assert last == n  # -guard and 129 selectors
    assert built["selectors"][:2] == [0, n - 1]


def test_a_load_whose_guard_is_false_seeds_but_gets_no_clause():
    load = Load(2, 1, -1, (4,), [
        Candidate(0, False, 5, 1, (4,)), Candidate(1, False, 5, 1, (4,)),
    ])
    inputs = (3, [0, 0, 0], 0b111, set(), flatten_loads([load]), 1)
    built = _assert_same_build(inputs, 100, 0)
    pairs = built["pairs"]
    assert list(zip(pairs[::2], pairs[1::2])) == [(0, 1), (0, 2), (1, 2)]
    assert built["value literals"] == built["selectors"] == []
    assert built["minted"] == 0


# ------------------------------------------------------------ bad inputs


@pytest.mark.parametrize("seeds", [
    [(2, 1)], [(0, 4)], [(-1, 2)], [(0, 1)],
])
def test_bad_seed_is_rejected_on_both_paths(seeds):
    """Out of range, reversed, or statically ordered (0 -> 1 below)."""
    reach = [0b10, 0, 0, 0]
    with pytest.raises(ValueError):
        reference_build_order(4, reach, 0b1111, seeds, 1)
    with pytest.raises(ValueError):
        native.build_order(4, reach, 0b1111, seeds, flatten_loads([]), 1)


def _descriptor(store: int = 1, width: int = 1, bits=(2,)) -> list[int]:
    """One load (access 0) with one candidate store."""
    return [0, 3, 1, 1, 1, 2, store, 0, 1, 1, width, *bits]


@pytest.mark.parametrize("descriptor", [
    _descriptor(store=4),  # a store index out of range
    _descriptor(store=-1),
    _descriptor(store=0),  # the load itself
    _descriptor(width=3),  # a bit count that runs past the end
    _descriptor()[:-1],  # cut inside the candidate record
    [0, 3, 5, 1, 0],  # five candidates announced, none given
    [4, 3, 0, 1, 0],  # a load index out of range
])
def test_a_malformed_descriptor_is_rejected(descriptor):
    with pytest.raises(ValueError, match="descriptor"):
        native.build_order(4, [0] * 4, 0b1111, [], descriptor, 1)


def test_the_well_formed_descriptor_builds():
    build = native.build_order(4, [0] * 4, 0b1111, [], _descriptor(), 10)
    with build:
        pairs, _, _ = build.transitivity(0)
        assert list(pairs) == [0, 1]
        *_, count = build.value_axioms(2, 0)
    assert count == 2  # the store's selector and the initial value's


@pytest.mark.parametrize("first_var", [2**31 - 1, 2**31])
def test_selectors_past_32_bits_are_rejected(first_var):
    """Two selectors cannot be numbered from 2**31 - 1 on."""
    build = native.build_order(4, [0] * 4, 0b1111, [], _descriptor(), 10)
    with build:
        with pytest.raises(ValueError):
            build.value_axioms(first_var, 0)
        *_, count = build.value_axioms(2**31 - 2, 0)
    assert count == 2


def test_a_closed_build_cannot_be_read():
    build = native.build_order(4, [0] * 4, 0b1111, [], _descriptor(), 1)
    build.close()
    build.close()
    with pytest.raises(ValueError, match="closed"):
        build.transitivity(0)


def test_the_build_is_freed_when_an_emitter_raises(monkeypatch, small_tests):
    """The build stays open across the Python emitters; one that raises
    must not leak it."""
    closed = []
    close = native.OrderBuild.close

    def counting_close(self):
        closed.append(self)
        close(self)

    def broken_emitter(self, exclusions):
        raise RuntimeError("emitter failed")

    monkeypatch.setattr(native.OrderBuild, "close", counting_close)
    monkeypatch.setattr(
        MemoryModelEncoder, "_assert_atomic_blocks", broken_emitter
    )
    _, compiled = small_tests("msn")[0]
    with pytest.raises(RuntimeError, match="emitter failed"):
        encode_test(compiled, get_model("relaxed"))
    assert len(closed) == 1 and closed[0]._handle is None
