"""Fence synthesis cost: solve counts, wall-clock, and solver-lane parity.

Synthesis issues dozens of closely-related SAT queries per cell (all-on
probe, core re-validation, destructive deletion, hitting-set candidates,
the minimality certificate), which is exactly the workload the
persistent incremental backend exists for.  Two groups:

* per catalog pair — one synthesis run per ``*-unfenced`` cell under
  Relaxed, with the search statistics embedded in the benchmark JSON;
* **solver lanes** — the identical search driven by the native kernel
  bare and with the CNF preprocessor forced in front of it
  (``CHECKFENCE_SIMPLIFY=1``), required to return the identical
  canonical fence set.
"""

import time

import pytest

from repro.core.checker import CheckOptions
from repro.core.session import CheckSession
from repro.datatypes.registry import get_implementation
from repro.harness.catalog import get_test

_PAIRS = [
    ("msn-unfenced", "queue", "T0"),
    ("ms2-unfenced", "queue", "T0"),
    ("lazylist-unfenced", "set", "Sac"),
    ("harris-unfenced", "set", "Sac"),
]


def _synthesize(implementation, category, test, options):
    session = CheckSession(get_implementation(implementation), options)
    return session.synthesize(get_test(category, test), ["relaxed"])


@pytest.mark.parametrize("implementation,category,test", _PAIRS)
def test_synthesize_catalog_pair(
    benchmark, implementation, category, test
):
    result = benchmark.pedantic(
        _synthesize,
        args=(implementation, category, test, CheckOptions()),
        rounds=1, iterations=1,
    )
    assert result.feasible and not result.already_passes
    assert result.verified_sufficient and result.verified_minimal
    benchmark.extra_info["synthesis"] = {
        "cell": f"{implementation}/{test}/relaxed",
        "fences": result.labels,
        "cost": result.cost,
        "optimal": result.optimal,
        **result.stats.as_dict(),
    }


def test_native_vs_simplify_search(benchmark, monkeypatch):
    """The core-guided search on the bare native kernel and with the
    preprocessor forced in front of it finds the identical canonical set
    on msn-unfenced/T0/relaxed; both solve counts and wall-clocks are
    recorded."""

    def run_lane(simplify):
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", simplify)
        start = time.perf_counter()
        result = _synthesize(
            "msn-unfenced", "queue", "T0", CheckOptions(solver_backend="auto")
        )
        return result, time.perf_counter() - start

    def run_both():
        return {lane: run_lane(lane) for lane in ("0", "1")}

    lanes = benchmark.pedantic(run_both, rounds=1, iterations=1)
    (bare, bare_seconds), (simplified, simplify_seconds) = (
        lanes["0"], lanes["1"]
    )
    assert bare.labels == simplified.labels
    assert bare.cost == simplified.cost
    benchmark.extra_info["synthesize_lanes"] = {
        "cell": "msn-unfenced/T0/relaxed",
        "native_solves": bare.stats.solves,
        "simplify_solves": simplified.stats.solves,
        "native_seconds": bare_seconds,
        "simplify_seconds": simplify_seconds,
    }
