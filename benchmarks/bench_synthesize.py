"""Fence synthesis cost: solve counts, wall-clock, and solver-lane parity.

Synthesis issues dozens of closely-related SAT queries per cell (all-on
probe, core re-validation, destructive deletion, hitting-set candidates,
the minimality certificate), which is exactly the workload the
persistent incremental backend exists for.  Two groups:

* per catalog pair — one synthesis run per ``*-unfenced`` cell under
  Relaxed, with the search statistics embedded in the benchmark JSON;
* **solver lanes** — the identical search driven by the in-process
  solver and by one long-lived ``--incremental`` pipe solver, required to
  return the identical canonical fence set.
"""

import os
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


@pytest.fixture(autouse=True)
def src_on_subprocess_path(monkeypatch):
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src")
    )
    existing = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH", src + os.pathsep + existing if existing else src
    )


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


def test_internal_vs_persistent_pipe_search(benchmark):
    """The core-guided search on the in-process solver and on one warm
    ``--incremental`` pipe solver finds the identical canonical set on
    msn-unfenced/T0/relaxed; both solve counts and wall-clocks are
    recorded."""

    def run_lane(solver):
        start = time.perf_counter()
        result = _synthesize(
            "msn-unfenced", "queue", "T0",
            CheckOptions(solver_backend=solver, simplify=False),
        )
        return result, time.perf_counter() - start

    def run_both():
        return {solver: run_lane(solver) for solver in ("internal", "ipasir:cli")}

    lanes = benchmark.pedantic(run_both, rounds=1, iterations=1)
    (internal, internal_seconds), (pipe, pipe_seconds) = (
        lanes["internal"], lanes["ipasir:cli"]
    )
    assert internal.labels == pipe.labels
    assert internal.cost == pipe.cost
    benchmark.extra_info["synthesize_lanes"] = {
        "cell": "msn-unfenced/T0/relaxed",
        "internal_solves": internal.stats.solves,
        "pipe_solves": pipe.stats.solves,
        "internal_seconds": internal_seconds,
        "pipe_seconds": pipe_seconds,
    }
