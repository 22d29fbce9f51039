"""Tests for the ``tools/perf_counts.py`` exact-count gate.

They work on made-up perfbench results: the tier-1 suite runs no
perfbench workload.
"""

import importlib.util
import json
import os

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


@pytest.fixture(scope="module")
def perf_counts():
    spec = importlib.util.spec_from_file_location(
        "perf_counts", os.path.join(_REPO_ROOT, "tools", "perf_counts.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(correct=True, **metrics):
    """A perfbench result line; each metric is ``(value, unit)``."""
    return {
        "correct": correct, "attempted": 8, "failed": 0 if correct else 1,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


PINNED = {
    "fig10-large": {"encoding.clauses": 346543, "solver.conflicts": 2099},
    "synthesize": {"synthesize.solves": 384},
}


def test_equal_counts_pass(perf_counts):
    measured = {w: dict(counts) for w, counts in PINNED.items()}
    assert perf_counts.compare(PINNED, measured) == []


def test_a_moved_count_names_workload_metric_and_both_values(perf_counts):
    measured = {w: dict(counts) for w, counts in PINNED.items()}
    measured["fig10-large"]["solver.conflicts"] = 2100
    assert perf_counts.compare(PINNED, measured) == [
        "fig10-large: solver.conflicts is 2099 in BENCH_4.json, "
        "2100 in this run"
    ]


def test_a_missing_workload_or_metric_fails_on_either_side(perf_counts):
    fewer = {"fig10-large": {"encoding.clauses": 346543}}
    assert perf_counts.compare(PINNED, fewer) == [
        "fig10-large: solver.conflicts is not reported",
        "synthesize: in BENCH_4.json but not run",
    ]
    assert perf_counts.compare(fewer, PINNED) == [
        "fig10-large: solver.conflicts is not in BENCH_4.json",
        "synthesize: run but not in BENCH_4.json",
    ]


def test_an_incorrect_run_fails(perf_counts):
    with pytest.raises(perf_counts.RunFailed, match="not correct"):
        perf_counts.count_metrics(
            result(correct=False, verdicts=(4.0, "count"))
        )


def test_a_run_that_exits_non_zero_fails(perf_counts):
    line = json.dumps(result(verdicts=(4.0, "count")))
    with pytest.raises(perf_counts.RunFailed, match="exited 1"):
        perf_counts.run_counts(
            ["-c", f"print({line!r}); raise SystemExit(1)"]
        )
    assert perf_counts.run_counts(["-c", f"print({line!r})"]) == {
        "verdicts": 4
    }


def test_only_count_metrics_are_pinned(perf_counts):
    counts = perf_counts.count_metrics(result(
        **{
            "encoding.clauses": (346543.0, "count"),
            "solver.calls_per_verdict": (1.5, "count"),
            "encoding.encode_s": (0.62, "s"),
            "encoding.skeleton_shared_ratio": (0.8, "ratio"),
            "solver.propagations_per_s": (2.1e6, "1/s"),
        }
    ))
    assert counts == {
        "encoding.clauses": 346543, "solver.calls_per_verdict": 1.5,
    }
    assert isinstance(counts["encoding.clauses"], int)


def test_baseline_pins_exactly_the_benchmark_workloads(perf_counts):
    with open(os.path.join(_REPO_ROOT, "BENCH_4.json")) as handle:
        pinned = json.load(handle)["workloads"]
    assert list(pinned) == perf_counts.workload_names()
    for workload, entry in pinned.items():
        assert entry["command"] == perf_counts.workload_command(workload)
        assert entry["counts"]["verdicts"] > 0

