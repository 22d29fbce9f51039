"""Fence synthesis cost: solve counts and wall-clock.

Synthesis issues dozens of closely-related SAT queries per cell (all-on
probe, core re-validation, destructive deletion, hitting-set candidates,
the minimality certificate), which is exactly the workload the
persistent incremental backend exists for.  One synthesis run per
``*-unfenced`` catalog pair under Relaxed, with the search statistics
embedded in the benchmark JSON.
"""

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

