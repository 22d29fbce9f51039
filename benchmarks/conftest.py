"""Benchmark harness configuration.

Every benchmark exercises a full checker run (seconds, not microseconds), so
we run one round with one iteration each; pytest-benchmark still records the
wall-clock time, which is the number the paper's figures report.
"""

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under the benchmark timer."""

    def runner(function, *args, **kwargs):
        return benchmark.pedantic(
            function, args=args, kwargs=kwargs, rounds=1, iterations=1
        )

    return runner


@pytest.fixture
def attach_solver_stats(benchmark):
    """Embed per-backend solver counters in the benchmark JSON
    (``--benchmark-json``), giving perf work a trajectory to compare
    against: decisions, conflicts, restarts, learned/deleted clauses.

    Accepts a dict (e.g. ``CheckStatistics.solver_dict()``) or a backend
    name plus a :class:`repro.sat.solver.SolverStats`.
    """

    def attach(stats, backend=None):
        if hasattr(stats, "as_dict"):
            payload = {"backend": backend or "", **stats.as_dict()}
        else:
            payload = dict(stats)
            if backend is not None:
                payload.setdefault("backend", backend)
        benchmark.extra_info["solver"] = payload

    return attach
