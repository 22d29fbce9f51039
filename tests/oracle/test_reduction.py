"""The enumerator's partial-order reduction equals its full search.

Each state of the reduced DFS performs only the enabled members of a
stubborn set (see :mod:`repro.oracle.enumerator`).  These tests run the
same enumerator twice, once as shipped and once with the set selection
monkeypatched to return every enabled access, and require identical
outcome sets and final-memory sets under all five models.  The programs
are the litmus catalog and generated corpora in three shapes; dropping
load-store pairs from the dependency relation, or the rule that a
disabled member pulls in one of its predecessors, changes dozens of these
cells.
"""

import pytest

from repro.fuzz import FuzzConfig, generate_corpus
from repro.litmus.catalog import available_litmus_tests, compiled_litmus
from repro.oracle import enumerate_outcomes
from repro.oracle.enumerator import _Enumerator

MODELS = ["serial", "sc", "tso", "pso", "relaxed"]

SHAPES = {
    "default": FuzzConfig(),
    "three-addresses": FuzzConfig(
        num_addresses=3, values=(1, 2, 3), copy_probability=0.4
    ),
    "four-threads": FuzzConfig(min_threads=3, max_threads=4),
}

PROGRAMS_PER_SHAPE = 25


def programs(group: str) -> list:
    if group == "litmus":
        return [
            (name, compiled_litmus(litmus))
            for name, litmus in available_litmus_tests().items()
        ]
    corpus = generate_corpus(23, PROGRAMS_PER_SHAPE, SHAPES[group])
    return [(program.spec(), program.compile()) for program in corpus]


def enumerate_all(compiled_programs) -> tuple[dict, int]:
    cells = {}
    nodes = 0
    for name, compiled in compiled_programs:
        for model in MODELS:
            result = enumerate_outcomes(
                compiled, model, record_final_memory=True
            )
            assert result.ok, (name, model, result.reason)
            cells[f"{name} @ {model}"] = (
                result.outcomes, result.final_memories
            )
            nodes += result.nodes
    return cells, nodes


@pytest.mark.parametrize("group", ["litmus", *SHAPES])
def test_reduction_equals_full_search(group, monkeypatch):
    compiled_programs = programs(group)
    reduced, reduced_nodes = enumerate_all(compiled_programs)
    monkeypatch.setattr(_Enumerator, "_choose", _Enumerator._enabled)
    full, full_nodes = enumerate_all(compiled_programs)
    differing = [cell for cell in full if reduced[cell] != full[cell]]
    assert not differing, (
        f"{len(differing)} of {len(full)} cells differ, e.g. {differing[:5]}"
    )
    # The comparison means something only if the reduction engaged.
    assert reduced_nodes < full_nodes
