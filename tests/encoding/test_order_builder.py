"""The memory-order builder in C writes the formula of its Python twin.

Each per-model layer hands its static order, its support-graph vertices
(the non-init accesses) and its seed pairs to one builder call, which
returns the live pairs, the transitivity clauses' literals and their
lengths.  The encoder runs ``order.c``
(:func:`repro.sat.native.build_order`); the pure-Python twin
(:func:`repro.encoding.memory.build_order`) is the reference.  These
tests hold the two to byte identity:

* on the inputs of every small-catalog layer (every implementation,
  fenced and unfenced, each small test, five models);
* on random inputs up to 130 accesses, so the native bit sets span three
  64-bit words.

The library is required, so a failed build fails these tests.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.datatypes.registry import (
    base_implementations,
    category_of,
    get_implementation,
)
from repro.encoding import compile_test
from repro.encoding.formula import skeleton_for
from repro.encoding.memory import MemoryModelEncoder, build_order
from repro.harness.catalog import get_test
from repro.harness.catalog import test_names as catalog_test_names
from repro.memorymodel.base import get_model
from repro.sat import native

MODELS = ["serial", "sc", "tso", "pso", "relaxed"]

#: Every small-catalog implementation, fenced and unfenced.
IMPLEMENTATIONS = [
    name
    for base in base_implementations()
    for name in (base, f"{base}-unfenced")
]


#: The Python twin, then the native builder.
BUILDERS = [build_order, native.build_order]


@pytest.fixture(scope="module")
def small_tests():
    """``(test name, compiled test)`` of every small test of an
    implementation, compiled once for both catalog tests below."""
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
    """The builder's arguments as the ``model`` layer computes them."""
    skeleton, _ = skeleton_for(compiled)
    encoder = MemoryModelEncoder(
        skeleton.context.fork(), get_model(model), skeleton.table
    )
    encoder._resolve_static_orders()
    encoder._prune_value_candidates()
    return (
        len(encoder.accesses),
        encoder._static_reach,
        skeleton.table.other_mask,
        encoder._seed_pairs(),
        encoder.ctx.circuit.cnf.num_vars + 1,
    )


def _as_lists(built):
    pairs, literals, lengths = built
    return list(pairs), list(literals), list(lengths)


@pytest.mark.parametrize("implementation", IMPLEMENTATIONS)
def test_native_and_python_build_the_same_layers(implementation, small_tests):
    layers = 0
    for test_name, compiled in small_tests(implementation):
        for model in MODELS:
            inputs = _layer_inputs(compiled, model)
            expected = _as_lists(build_order(*inputs))
            assert _as_lists(native.build_order(*inputs)) == expected, (
                implementation, test_name, model
            )
            layers += 1
    assert layers >= 2 * len(MODELS)


def _random_inputs(n: int, seed: int, edge_p: float, vertex_p: float,
                   seed_p: float):
    """A transitively closed acyclic static order (random edges along a
    random permutation, then closed), a random vertex mask and random
    seed pairs that no static edge orders."""
    rng = random.Random(seed)
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
    allowed = sum(1 << p for p in range(n) if rng.random() < vertex_p)
    seeds = {
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if not (reach[i] >> j) & 1
        and not (reach[j] >> i) & 1
        and rng.random() < seed_p
    }
    return reach, allowed, seeds


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 130),
    seed=st.integers(0, 2**32 - 1),
    edge_p=st.sampled_from([0.0, 0.005, 0.02, 0.1]),
    vertex_p=st.sampled_from([0.5, 0.9, 1.0]),
    seed_p=st.sampled_from([0.0, 0.01, 0.03]),
    first_var=st.integers(1, 10**6),
)
def test_random_inputs_build_identically(
    n, seed, edge_p, vertex_p, seed_p, first_var
):
    reach, allowed, seeds = _random_inputs(n, seed, edge_p, vertex_p, seed_p)
    given_seeds = set(seeds)
    expected, *others = [
        _as_lists(build(n, reach, allowed, seeds, first_var))
        for build in BUILDERS
    ]
    assert seeds == given_seeds  # neither builder touches the caller's set
    assert all(built == expected for built in others)
    pairs, literals, lengths = expected
    live = list(zip(pairs[::2], pairs[1::2]))
    assert live == sorted(set(live)) and given_seeds <= set(live)
    assert sum(lengths) == len(literals)
    top = first_var + len(live)
    assert all(1 <= abs(lit) < top for lit in literals)


@pytest.mark.parametrize("seeds", [
    [(2, 1)], [(0, 4)], [(-1, 2)], [(0, 1)],
])
def test_bad_seed_is_rejected_on_both_paths(seeds):
    """Out of range, reversed, or statically ordered (0 -> 1 below)."""
    reach = [0b10, 0, 0, 0]
    for build in BUILDERS:
        with pytest.raises(ValueError):
            build(4, reach, 0b1111, seeds, 1)
