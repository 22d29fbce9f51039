"""Synthesis-level backend parity.

The low-level core/deletion contract lives in
``tests/sat/test_backend_contract.py``; this file asserts the end-to-end
consequence: the *synthesized fence set* is identical whichever solver
lane drives the search — the native CDCL kernel, the same kernel through
its IPASIR exports, or the simplifying preprocessor forced on around the
native kernel (whose UNSAT cores must round-trip through its
substitution-origin map).

Different lanes produce different SAT witnesses and different (equally
sound) UNSAT cores, so they can reach *different equal-cost optima*;
the search's lexicographic canonicalization pass is what makes this
test possible.  ``lazylist`` is the regression anchor — before
canonicalization the simplify lane genuinely picked a different slot.
"""

from __future__ import annotations

import pytest

from repro.core.session import CheckSession
from repro.core.synthesize import synthesize_litmus
from repro.datatypes.registry import get_implementation
from repro.fuzz import FuzzProgram
from repro.harness.catalog import get_test
from repro.sat import native
from repro.sat.backend import make_backend_factory
from repro.sat.simplify import SimplifyingBackend


@pytest.fixture
def lanes(monkeypatch):
    """Lane name -> backend factory."""
    monkeypatch.delenv("CHECKFENCE_SIMPLIFY", raising=False)
    factories = {
        "native": make_backend_factory("auto"),
        "ipasir": make_backend_factory(f"ipasir:{native.library_path()}"),
    }
    monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "1")
    factories["simplify"] = make_backend_factory("auto")
    monkeypatch.delenv("CHECKFENCE_SIMPLIFY")
    return factories


def session_on(impl: str, factory) -> CheckSession:
    session = CheckSession(get_implementation(impl))
    session.backend_factory = factory
    return session

CATALOG_CELLS = [
    ("msn-unfenced", "queue", "T0", "relaxed"),
    ("lazylist-unfenced", "set", "Sac", "relaxed"),  # canonicalization anchor
    ("harris-unfenced", "set", "Sac", "pso"),
]


@pytest.mark.parametrize(
    "impl,category,test,model",
    CATALOG_CELLS,
    ids=[f"{impl}-{model}" for impl, _, _, model in CATALOG_CELLS],
)
def test_catalog_synthesis_agrees_across_lanes(
    impl, category, test, model, lanes
):
    outcomes = {}
    for lane, factory in lanes.items():
        session = session_on(impl, factory)
        result = session.synthesize(get_test(category, test), [model])
        assert result.feasible and not result.already_passes
        assert result.verified_sufficient
        outcomes[lane] = (tuple(result.labels), result.cost, result.optimal)
    distinct = set(outcomes.values())
    assert len(distinct) == 1, f"lanes disagree: {outcomes}"


@pytest.mark.parametrize("spec,models", [
    ("x=1 y=1 | r0=y r1=x", ["relaxed"]),
    ("x=1 r0=y | y=1 r1=x", ["tso"]),
    ("x=1 y=1 | r0=y r1=x", ["tso", "pso", "relaxed"]),
])
def test_litmus_synthesis_agrees_across_lanes(spec, models, lanes):
    program = FuzzProgram.parse(spec)
    outcomes = {}
    for lane, factory in lanes.items():
        result = synthesize_litmus(program, models, backend_factory=factory)
        assert result.feasible and not result.already_passes
        assert result.verified_sufficient
        outcomes[lane] = (tuple(result.labels), result.cost)
    assert len(set(outcomes.values())) == 1, f"lanes disagree: {outcomes}"


def test_simplify_lane_actually_preprocesses(lanes):
    """Guard against the parity test silently degenerating: the simplify
    lane must have run the preprocessor (CHECKFENCE_SIMPLIFY plumbed all
    the way down), otherwise it is just the native lane twice."""
    assert isinstance(lanes["simplify"](), SimplifyingBackend)
    session = session_on("msn-unfenced", lanes["simplify"])
    result = session.synthesize(get_test("queue", "T0"), ["relaxed"])
    baseline = session_on("msn-unfenced", lanes["native"]).synthesize(
        get_test("queue", "T0"), ["relaxed"]
    )
    assert result.labels == baseline.labels
    # Both lanes certify the same canonical repair independently.
    assert result.verified_minimal and baseline.verified_minimal
