"""Synthesis-level backend parity.

The low-level core/deletion contract lives in
``tests/sat/test_backend_contract.py``; this file asserts the end-to-end
consequence: the *synthesized fence set* is identical whichever solver
lane drives the search — the native CDCL kernel, or the same kernel
through its IPASIR exports.

Different lanes can produce different SAT witnesses and different
(equally sound) UNSAT cores, so they can reach *different equal-cost
optima*; the search's lexicographic canonicalization pass is what makes
this test possible.  ``lazylist`` is the regression anchor: before
canonicalization, a lane over the since-deleted CNF preprocessor picked
a different slot there.
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


@pytest.fixture
def lanes():
    """Lane name -> backend factory."""
    return {
        "native": make_backend_factory("auto"),
        "ipasir": make_backend_factory(f"ipasir:{native.library_path()}"),
    }


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
