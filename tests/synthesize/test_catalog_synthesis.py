"""Catalog fence synthesis: repair every unfenced implementation.

The Section 4.3 experiment in reverse: starting from the ``*-unfenced``
variants (whose FAIL verdicts ``tests/experiments`` already pins),
``CheckSession.synthesize`` must find a fence set that turns the cell
back to PASS, prove it 1-minimal, and come in at or below the
hand-fenced implementation's fence count.  Expected sets are pinned —
they are canonical (deterministic across solver backends, see
``test_backend_parity``) and small enough to eyeball against the paper's
placements (store-store before the linearizing store, load-load between
the dependent reads).
"""

from __future__ import annotations

import pytest

from repro.core.checker import CheckOptions
from repro.core.session import CheckSession
from repro.datatypes.registry import get_implementation
from repro.harness.bugtests import (
    deque_double_pop_test,
    lazylist_missing_init_test,
)
from repro.harness.catalog import get_test
from repro.harness.runner import count_hand_fences

#: (base implementation, category, test) — synthesis runs on
#: ``{base}-unfenced``; the hand-fenced ``base`` is the size yardstick.
PAIRS = [
    ("msn", "queue", "T0"),
    ("ms2", "queue", "T0"),
    ("lazylist", "set", "Sac"),
    ("harris", "set", "Sac"),
]

#: Pinned canonical fence sets per (base, model).  ``tso`` cells pass
#: without fences for every pair, so only pso/relaxed appear here.
EXPECTED = {
    ("msn", "pso"): {"enqueue@0:store-store"},
    ("msn", "relaxed"): {"dequeue@1:load-load", "enqueue@6:store-store"},
    ("ms2", "pso"): {"enqueue@0:store-store"},
    ("ms2", "relaxed"): {"dequeue@2:load-load", "enqueue@0:store-store"},
    ("lazylist", "pso"): {"add@10:store-store"},
    ("lazylist", "relaxed"): {"add@10:store-store", "contains@1:load-load"},
    ("harris", "pso"): {"add@6:store-store"},
    ("harris", "relaxed"): {"add@6:store-store", "contains@1:load-load"},
}

MODELS = ["tso", "pso", "relaxed"]

CELLS = [(base, category, test, model)
         for base, category, test in PAIRS for model in MODELS]


@pytest.fixture(scope="module")
def synthesis_results():
    """One warm session per implementation, all models synthesized on it —
    the per-test asserts below read from this cache."""
    results = {}
    for base, category, test_name in PAIRS:
        session = CheckSession(
            get_implementation(f"{base}-unfenced"), CheckOptions()
        )
        test = get_test(category, test_name)
        for model in MODELS:
            results[(base, model)] = session.synthesize(test, [model])
    return results


@pytest.mark.parametrize(
    "base,category,test,model",
    CELLS,
    ids=[f"{base}-{model}" for base, _, _, model in CELLS],
)
def test_synthesis_repairs_cell(synthesis_results, base, category, test, model):
    result = synthesis_results[(base, model)]
    assert result.feasible

    if model == "tso":
        # Every catalog pair already passes under TSO unfenced
        # (tests/experiments pins the PASS row): nothing to insert.
        assert result.already_passes
        assert result.fences == []
        assert result.cost == 0
        return

    assert not result.already_passes
    assert result.failing_queries, "a FAILing query must drive the search"
    # Sufficiency and minimality are certified by independent concrete
    # re-checks (fresh compile with real fences, no selectors).
    assert result.verified_sufficient
    assert result.verified_minimal
    assert result.optimal, "exact search must prove cost-optimality"
    assert set(result.labels) == EXPECTED[(base, model)]


@pytest.mark.parametrize("base,category,test",
                         PAIRS, ids=[p[0] for p in PAIRS])
def test_synthesized_set_no_larger_than_hand_fenced(
    synthesis_results, base, category, test
):
    """The paper's hand placements fence every architecture at once; the
    per-model synthesized sets must never need more."""
    hand = count_hand_fences(base)
    assert hand > 0, f"{base} should carry hand-written fences"
    for model in MODELS:
        result = synthesis_results[(base, model)]
        assert len(result.fences) <= hand, (
            f"{base}/{model}: synthesized {len(result.fences)} fences, "
            f"hand-fenced version has {hand}"
        )


def test_relaxed_set_repairs_weaker_models_too(synthesis_results):
    """Monotonicity on a real data type: the relaxed-synthesized set costs
    at least as much as the pso one, and the pso placement is a sub-fence
    of the relaxed repair (the store-store barrier persists)."""
    for base, _, _ in PAIRS:
        relaxed = synthesis_results[(base, "relaxed")]
        pso = synthesis_results[(base, "pso")]
        assert relaxed.cost >= pso.cost
        relaxed_kinds = {label.split(":")[1] for label in relaxed.labels}
        assert "store-store" in relaxed_kinds


def test_statistics_are_populated(synthesis_results):
    for base, _, _ in PAIRS:
        result = synthesis_results[(base, "relaxed")]
        stats = result.stats
        assert stats.candidates > 0
        assert stats.solves > 0
        assert stats.solve_seconds >= 0.0
        assert 0 < stats.core_size <= stats.candidates
        payload = result.as_dict()
        assert payload["stats"]["solves"] == stats.solves
        assert [f["label"] for f in payload["fences"]] == result.labels


@pytest.mark.parametrize(
    "implementation,make_test,solves",
    [
        ("snark-buggy", deque_double_pop_test, 2),
        ("lazylist-buggy", lazylist_missing_init_test, 3),
    ],
    ids=["snark-buggy", "lazylist-buggy"],
)
def test_algorithmic_bug_is_infeasible(implementation, make_test, solves):
    """The Section 4.1 bugs FAIL even under ``sc``: enabling every
    candidate fence cannot repair them, and the search stops right after
    that all-on solve (the probe's solves plus one)."""
    session = CheckSession(get_implementation(implementation), CheckOptions())
    result = session.synthesize(make_test(), ["sc"])
    assert not result.feasible
    assert not result.already_passes
    assert result.fences == []
    assert result.failing_queries == ["sc/inclusion"]
    assert result.stats.core_size == 0
    assert result.stats.solves == solves
    assert len(result.notes) == 1
    assert "not a fence-repairable reordering" in result.notes[0]
