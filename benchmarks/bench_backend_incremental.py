"""Incremental solving lanes on the specification-mining workload.

The paper's toolchain exported one DIMACS file per query and restarted
zChaff from scratch; every backend here keeps one solver alive across the
whole solve/block mining loop (the heaviest enumeration loop in the
pipeline), so learned clauses from one query prune the next.  This module
runs that loop on each lane:

* **internal** — ``InternalBackend``: the in-tree CDCL solver, in process;
* **persistent** — ``IncrementalPipeBackend``: the same in-tree solver
  behind one long-lived ``--incremental`` process (clauses shipped once,
  learned clauses preserved);
* **library** — ``IpasirBackend`` over a real IPASIR shared library,
  when one is installed (skipped otherwise).

Every lane runs the identical mining loop, so the solve counts must agree
and, on the uncapped test, the observation sets too — the verdict-identity
gate of the incremental paths.  Results land in the BENCH trend JSON via
``extra_info``.

Not in the default ``bench_trend`` set (the pipe lane spawns solver
processes); run via ``tools/bench_trend.py --benchmarks
backend_incremental`` or directly with pytest.
"""

import os

import pytest

from repro.core.specification import SatSpecificationMiner
from repro.datatypes.registry import category_of, get_implementation
from repro.encoding import compile_test
from repro.harness.catalog import get_test
from repro.sat.backend import InternalBackend
from repro.sat.ipasir import (
    IncrementalPipeBackend,
    IpasirBackend,
    find_ipasir_library,
)

#: A small queue test mined to completion (verdict identity asserted) and
#: the largest catalog test capped to a fixed number of solve/block
#: iterations (per-solve timing only).
FULL_TEST = ("msn", "Ti2")
CAPPED_TEST = ("lazylist", "Saaarr")
CAPPED_SOLVES = 6


@pytest.fixture(autouse=True)
def src_on_subprocess_path(monkeypatch):
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "src")
    )
    existing = os.environ.get("PYTHONPATH")
    monkeypatch.setenv(
        "PYTHONPATH", src + os.pathsep + existing if existing else src
    )


def _mine(compiled, factory, max_observations=100_000):
    miner = SatSpecificationMiner(
        compiled, max_observations=max_observations,
        backend_factory=factory,
    )
    return miner.mine()


def _compiled(implementation_name, test_name):
    implementation = get_implementation(implementation_name)
    test = get_test(category_of(implementation_name), test_name)
    return compile_test(implementation, test)


def _record(benchmark, test, lanes, **extra):
    benchmark.extra_info["incremental_lanes"] = {
        "test": test,
        "solves": {name: spec.solver_iterations for name, spec in lanes.items()},
        "seconds": {name: spec.mining_seconds for name, spec in lanes.items()},
        **extra,
    }


def test_internal_vs_persistent_full_mining(benchmark):
    """msn/Ti2 mined to completion on both lanes: identical observation
    sets and solve counts, both wall-clocks recorded."""
    compiled = _compiled(*FULL_TEST)

    def run_both():
        return {
            "internal": _mine(compiled, InternalBackend),
            "persistent": _mine(compiled, IncrementalPipeBackend),
        }

    lanes = benchmark.pedantic(run_both, rounds=1, iterations=1)
    _record(benchmark, "/".join(FULL_TEST), lanes,
            observations=len(lanes["internal"]))
    assert lanes["internal"].observations == lanes["persistent"].observations
    assert (
        lanes["internal"].solver_iterations
        == lanes["persistent"].solver_iterations
    )


def test_internal_vs_persistent_capped_large(benchmark):
    """lazylist/Saaarr for a fixed number of solve/block iterations: the
    per-solve cost of the pipe protocol vs the in-process solver."""
    compiled = _compiled(*CAPPED_TEST)

    def run_both():
        return {
            name: _mine(compiled, factory, max_observations=CAPPED_SOLVES)
            for name, factory in (
                ("internal", InternalBackend),
                ("persistent", IncrementalPipeBackend),
            )
        }

    lanes = benchmark.pedantic(run_both, rounds=1, iterations=1)
    _record(benchmark, "/".join(CAPPED_TEST), lanes,
            capped_solves=CAPPED_SOLVES)
    assert (
        lanes["internal"].solver_iterations
        == lanes["persistent"].solver_iterations
    )


@pytest.mark.skipif(
    find_ipasir_library() is None,
    reason="no IPASIR shared library installed",
)
def test_ipasir_library_full_mining(benchmark):
    """With a real IPASIR library (CI's cadical job): the full msn/Ti2
    loop on the library is verdict-identical to the internal solver."""
    compiled = _compiled(*FULL_TEST)
    library = find_ipasir_library()

    def run_both():
        return {
            "internal": _mine(compiled, InternalBackend),
            "library": _mine(compiled, lambda: IpasirBackend(library)),
        }

    lanes = benchmark.pedantic(run_both, rounds=1, iterations=1)
    _record(benchmark, "/".join(FULL_TEST), lanes, library=library)
    assert lanes["internal"].observations == lanes["library"].observations


@pytest.mark.skipif(
    find_ipasir_library() is None,
    reason="no IPASIR shared library installed",
)
def test_ipasir_library_capped_tpc6(benchmark):
    """msn/Tpc6 capped to a fixed number of solve/block iterations on the
    library and the internal solver: identical solve counts, per-solve
    timings recorded."""
    compiled = _compiled("msn", "Tpc6")
    library = find_ipasir_library()

    def run_both():
        return {
            name: _mine(compiled, factory, max_observations=CAPPED_SOLVES)
            for name, factory in (
                ("internal", InternalBackend),
                ("library", lambda: IpasirBackend(library)),
            )
        }

    lanes = benchmark.pedantic(run_both, rounds=1, iterations=1)
    _record(benchmark, "msn/Tpc6", lanes, library=library,
            capped_solves=CAPPED_SOLVES)
    assert (
        lanes["internal"].solver_iterations
        == lanes["library"].solver_iterations
    )
