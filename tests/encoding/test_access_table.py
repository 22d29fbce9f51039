"""The skeleton's access table: built once, read by every memory-model
layer, never mutated by one.

``repro.encoding.memory.AccessTable`` holds every model-independent fact
about a test's accesses, including the *core* static order (init-thread
order, init first, atomic-block order, always-executed fences).  A
five-model sweep must build it once, leave it untouched, and every layer's
static order must extend the core closure.  The encoder asserts no clause
for preserved program order, init-first or atomic-block-internal order, so
each such pair must be a static edge of every layer.
"""

import copy

import pytest

from repro.datatypes.registry import category_of, get_implementation
from repro.encoding import compile_test, encode_test
from repro.encoding.formula import skeleton_for
from repro.encoding.memory import AccessTable
from repro.encoding.testprogram import INIT_THREAD
from repro.harness.catalog import get_test
from repro.memorymodel.base import get_model
from repro.sat.circuit import Circuit

MODELS = ["serial", "sc", "tso", "pso", "relaxed"]

#: snark/D0 has atomic blocks (its DCAS); ms2/T0 has fences, some of them
#: conditional.  Both have constant same-address store pairs.
CASES = [("snark", "D0"), ("ms2", "T0")]


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@pytest.mark.parametrize("case", CASES, ids="/".join)
def test_five_layers_share_one_unchanged_table(case, monkeypatch):
    built = []
    build = AccessTable.__init__

    def counting_build(self, threads):
        built.append(self)
        build(self, threads)

    monkeypatch.setattr(AccessTable, "__init__", counting_build)
    implementation, test = case
    compiled = compile_test(
        get_implementation(implementation),
        get_test(category_of(implementation), test),
    )
    table = skeleton_for(compiled)[0].table
    assert table.atomic_groups and table.const_edges
    assert any(guard == Circuit.TRUE for _, _, guard in table.fence_pairs)
    before = copy.deepcopy(vars(table))
    core = table.closure(table.core_successors)

    for model in MODELS:
        order = encode_test(compiled, get_model(model)).order
        for i, mask in enumerate(core):
            for j in _bits(mask):
                assert order.resolved(i, j) == Circuit.TRUE, (model, i, j)
                assert order.resolved(j, i) == Circuit.FALSE, (model, i, j)

    assert built == [table]
    assert skeleton_for(compiled)[0].table is table
    assert vars(table) == before


@pytest.mark.parametrize("case", CASES, ids="/".join)
def test_unconditional_pairs_are_forward_static_edges(case):
    implementation, test = case
    compiled = compile_test(
        get_implementation(implementation),
        get_test(category_of(implementation), test),
    )
    table = skeleton_for(compiled)[0].table
    init_pairs = [
        (first, second)
        for first, second in table.same_thread_pairs
        if first.thread == INIT_THREAD
    ]
    init_first = [
        (first, second)
        for first in table.init_accesses
        for second in table.other_accesses
    ]
    block_pairs = [
        (first, second)
        for members in table.atomic_groups
        for i, first in enumerate(members)
        for second in members[i + 1:]
    ]
    assert init_pairs and init_first
    assert block_pairs or implementation != "snark"

    for name in MODELS:
        model = get_model(name)
        preserved = [
            (first, second)
            for first, second in table.same_thread_pairs
            if first.thread != INIT_THREAD
            and model.preserves(first.kind, second.kind)
        ]
        assert preserved or name == "relaxed"
        # The OR of the preserved classes' masks is exactly those pairs.
        assert {
            (i, j)
            for kinds in model.preserved_program_order
            for i, mask in enumerate(table.program_order[kinds])
            for j in _bits(mask)
        } == {(first.index, second.index) for first, second in preserved}, name
        order = encode_test(compiled, model).order
        for first, second in init_pairs + init_first + block_pairs + preserved:
            assert order.resolved(first.index, second.index) == Circuit.TRUE, (
                name, first, second,
            )
