"""Tests for the ``tools/perf_counts.py`` exact-count gate, and for the
names of the checker that perfbench reads.

They work on made-up perfbench results: the tier-1 suite runs no
perfbench workload.
"""

import importlib.util
import json
import os
import sys

import pytest

from repro.core.results import CheckStatistics
from repro.core.session import CheckSession

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


def _load(name, *path):
    """The module at ``path`` under the repository root, loaded by path."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_REPO_ROOT, *path)
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perf_counts():
    return _load("perf_counts", "tools", "perf_counts.py")


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


def _entry_point(module_name, attribute):
    """What a tracer ``LAYERS`` row names, as its module or class holds
    it now."""
    module = importlib.import_module(module_name)
    if "." in attribute:
        class_name, method = attribute.split(".")
        return getattr(module, class_name).__dict__[method]
    return getattr(module, attribute)


def test_the_benchmark_tracer_installs_on_this_tree(monkeypatch):
    """The traced benchmark run wraps checker entry points by name and
    prints constants kept only for it, so a refactor that drops one of
    them breaks the benchmark: every ``LAYERS`` row must resolve, and
    the tracer must put every original back."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no .pyc
    tracer_module = _load("perfbench_tracer", "perfbench", "tracer.py")
    rows = [(module, attribute)
            for _, module, attribute in tracer_module.LAYERS]
    originals = [_entry_point(*row) for row in rows]
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        wrappers = [_entry_point(*row) for row in rows]
    finally:
        tracer.uninstall()
    for row, original, wrapper in zip(rows, originals, wrappers):
        assert wrapper.__wrapped__ is original, row
        assert _entry_point(*row) is original, row
    # The tracer also rebinds a function in every module that imported
    # it by name; none may keep a wrapper.
    left = {id(wrapper) for wrapper in wrappers}
    for loaded in list(sys.modules.values()):
        names = getattr(loaded, "__dict__", {})
        assert not any(id(value) in left for value in names.values()), loaded
    # perfbench/run.py and perfbench/workloads.py print these.
    assert (
        CheckSession.dense_order, CheckSession.share_encode,
        CheckSession.simplify,
    ) == (False, True, False)
    stats = CheckStatistics()
    assert stats.solver_preprocess_seconds == 0.0
    assert "solver_preprocess_seconds" not in stats.as_dict()  # no field
