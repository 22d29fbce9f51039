"""Fig. 12: observation-set method vs the commit-point style baseline.

The paper reports an average 2.61x speedup of the observation-set method
over the earlier commit-point method.  We compare against the lazy
validation baseline (:mod:`repro.core.commitpoint`; see "Substitutions" in
docs/paper-map.md) on the small catalog tests, and check that the two
methods agree on every verdict.
"""

import pytest

from repro.harness.reporting import format_table
from repro.harness.runner import method_comparison

_CASES = [
    ("msn", "T0"),
    ("ms2", "T0"),
    ("harris", "Sac"),
    ("msn-unfenced", "T0"),
]

_RESULTS = []


@pytest.mark.parametrize("implementation,test_name", _CASES)
def test_fig12_method_comparison(benchmark, implementation, test_name):
    comparison = benchmark.pedantic(
        method_comparison, args=(implementation, test_name, "relaxed"),
        rounds=1, iterations=1,
    )
    assert comparison.both_agree
    _RESULTS.append(comparison)


def test_fig12_report(capsys):
    assert _RESULTS
    headers = ["impl", "test", "observation-set[s]", "commit-point[s]", "ratio"]
    rows = [
        (c.implementation, c.test, f"{c.observation_set_seconds:.2f}",
         f"{c.commit_point_seconds:.2f}", f"{c.speedup:.2f}x")
        for c in _RESULTS
    ]
    with capsys.disabled():
        print("\nFig. 12: method comparison (ratio > 1 means the observation-"
              "set method is faster)\n")
        print(format_table(headers, rows))
