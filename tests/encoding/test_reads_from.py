"""Reads-from selectors of the value axioms.

Every load gets one selector per store it may read plus one for the
initial value (``MemoryOrderEncoding.sources``).  The properties below
run over generated litmus programs and the five memory models and check
a few enumerated solutions of each formula: at most one selector per load is
true, exactly one per executed load, and the chosen store executed,
writes the load's address and holds the load's value (an initial-value
source holds the location's initial value).  The solution's memory order is
checked against the choice too: the chosen store is the ``<M``-maximal
store visible to the load, and an initial-value source sees no store.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro.encoding.formula import encode_test
from repro.fuzz import generate_program
from repro.memorymodel.base import get_model
from repro.sat.bitvec import BitVecBuilder

MODELS = ["serial", "sc", "tso", "pso", "relaxed"]

#: Solutions (distinct observations) enumerated per formula.
SOLUTIONS_PER_FORMULA = 4


def _assert_selector_invariants(encoded, model: dict[int, bool]) -> None:
    order = encoded.order

    def evaluate(lit: int, model: dict[int, bool]) -> bool:
        return model.get(abs(lit), False) == (lit > 0)

    def decode(vec) -> int:
        return BitVecBuilder.decode(vec, lambda bit: evaluate(bit, model))

    def before(first: int, second: int) -> bool:
        lit = order.resolved(first, second)
        assert lit is not None, "a value-axiom pair has no order"
        return evaluate(lit, model)

    accesses = order.accesses
    decoded = encoded.decode_sources(model)
    executed_stores = [
        p for p, a in enumerate(accesses)
        if a.is_store and evaluate(a.guard, model)
    ]
    for position, access in enumerate(accesses):
        if not access.is_load:
            continue
        chosen = [
            source for source, lit in order.sources.get(position, ())
            if model.get(lit, False)
        ]
        assert len(chosen) <= 1, (access.label, chosen)
        if not evaluate(access.guard, model):
            continue
        assert len(chosen) == 1, access.label
        assert decoded[position] == chosen[0], access.label
        address = decode(access.addr)
        value = decode(access.value)

        def is_visible(p: int) -> bool:
            store = accesses[p]
            forwarded = (
                encoded.model.store_forwarding
                and store.thread == access.thread
                and store.seq < access.seq
            )
            return decode(store.addr) == address and (
                forwarded or before(p, position)
            )

        visible = [p for p in executed_stores if is_visible(p)]
        source = chosen[0]
        if source is None:
            assert not visible, access.label
            initial = encoded.ctx.initial_value(address)
            assert decode(initial) == value, access.label
            continue
        store = accesses[source]
        assert source in visible, (access.label, store.label)
        assert decode(store.value) == value, (access.label, store.label)
        for other in visible:
            if other != source:
                assert before(other, source), (access.label, store.label)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_selectors_name_one_consistent_source(seed):
    """Check the invariants on a few solutions of the program's formula
    under every memory model."""
    compiled = generate_program(random.Random(seed)).compile()
    for name in MODELS:
        encoded = encode_test(compiled, get_model(name))
        for count, _ in enumerate(encoded.observations()):
            _assert_selector_invariants(encoded, encoded.model_values())
            if count + 1 == SOLUTIONS_PER_FORMULA:
                break

