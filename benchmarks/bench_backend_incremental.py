"""Incremental solving lanes on the specification-mining workload.

The paper's toolchain exported one DIMACS file per query and restarted
zChaff from scratch; every backend here keeps one solver alive across the
whole solve/block mining loop (the heaviest enumeration loop in the
pipeline), so learned clauses from one query prune the next.  This module
runs that loop on each lane:

* **native** — ``InternalBackend`` over the native C kernel;
* **ipasir** — ``IpasirBackend`` over the same kernel's IPASIR exports
  (one ctypes call per literal instead of one per clause batch);
* **library** — ``IpasirBackend`` over a real IPASIR shared library,
  when ``CHECKFENCE_SOLVER`` names one as ``ipasir:<path>`` (skipped
  otherwise).  CI's ipasir-cadical job runs it against cadical, the one
  check of ``cdcl.c`` against an independent kernel.

Every lane runs the identical mining loop, so the solve counts must agree
and, on the uncapped test, the observation sets too — the verdict-identity
gate of the incremental paths.  Results land in the benchmark JSON via
``extra_info``.

Run it with pytest; CI's ipasir-cadical job names a cadical build in
``CHECKFENCE_SOLVER``, so the library lane runs there.
"""

import pytest

from repro.core.specification import SatSpecificationMiner
from repro.datatypes.registry import category_of, get_implementation
from repro.encoding import compile_test
from repro.harness.catalog import get_test
from repro.sat import native
from repro.sat.backend import InternalBackend, default_backend_spec
from repro.sat.ipasir import IpasirBackend

#: A small queue test mined to completion (verdict identity asserted) and
#: the largest catalog test capped to a fixed number of solve/block
#: iterations (per-solve timing only).
FULL_TEST = ("msn", "Ti2")
CAPPED_TEST = ("lazylist", "Saaarr")
CAPPED_SOLVES = 6

#: The IPASIR library of the library lanes: the path of an
#: ``ipasir:<path>`` ``CHECKFENCE_SOLVER`` spec, else None (lanes skip).
_SPEC = default_backend_spec().strip()
LIBRARY = (
    _SPEC[len("ipasir:"):].strip() if _SPEC.startswith("ipasir:") else None
)
needs_library = pytest.mark.skipif(
    not LIBRARY, reason="CHECKFENCE_SOLVER names no ipasir:<path> library"
)


def _native_ipasir():
    """The native kernel loaded through its own IPASIR exports."""
    return IpasirBackend(native.library_path())


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


def test_native_vs_ipasir_full_mining(benchmark):
    """msn/Ti2 mined to completion on the native kernel, bound directly and
    through its IPASIR exports: identical observation sets and solve
    counts, both wall-clocks recorded."""
    compiled = _compiled(*FULL_TEST)

    def run_both():
        return {
            "native": _mine(compiled, InternalBackend),
            "ipasir": _mine(compiled, _native_ipasir),
        }

    lanes = benchmark.pedantic(run_both, rounds=1, iterations=1)
    _record(benchmark, "/".join(FULL_TEST), lanes,
            observations=len(lanes["native"]))
    assert lanes["native"].observations == lanes["ipasir"].observations
    assert (
        lanes["native"].solver_iterations
        == lanes["ipasir"].solver_iterations
    )


def test_native_vs_ipasir_capped_large(benchmark):
    """lazylist/Saaarr for a fixed number of solve/block iterations: the
    per-solve cost of the two bindings."""
    compiled = _compiled(*CAPPED_TEST)

    def run_both():
        return {
            name: _mine(compiled, factory, max_observations=CAPPED_SOLVES)
            for name, factory in (
                ("native", InternalBackend),
                ("ipasir", _native_ipasir),
            )
        }

    lanes = benchmark.pedantic(run_both, rounds=1, iterations=1)
    _record(benchmark, "/".join(CAPPED_TEST), lanes,
            capped_solves=CAPPED_SOLVES)
    assert (
        lanes["native"].solver_iterations
        == lanes["ipasir"].solver_iterations
    )


@needs_library
def test_ipasir_library_full_mining(benchmark):
    """With a real IPASIR library (CI's cadical job): the full msn/Ti2
    loop on the library is verdict-identical to the native kernel."""
    compiled = _compiled(*FULL_TEST)

    def run_both():
        return {
            "native": _mine(compiled, InternalBackend),
            "library": _mine(compiled, lambda: IpasirBackend(LIBRARY)),
        }

    lanes = benchmark.pedantic(run_both, rounds=1, iterations=1)
    _record(benchmark, "/".join(FULL_TEST), lanes, library=LIBRARY)
    assert lanes["native"].observations == lanes["library"].observations


@needs_library
def test_ipasir_library_capped_tpc6(benchmark):
    """msn/Tpc6 capped to a fixed number of solve/block iterations on the
    library and the native kernel: identical solve counts, per-solve
    timings recorded."""
    compiled = _compiled("msn", "Tpc6")

    def run_both():
        return {
            name: _mine(compiled, factory, max_observations=CAPPED_SOLVES)
            for name, factory in (
                ("native", InternalBackend),
                ("library", lambda: IpasirBackend(LIBRARY)),
            )
        }

    lanes = benchmark.pedantic(run_both, rounds=1, iterations=1)
    _record(benchmark, "msn/Tpc6", lanes, library=LIBRARY,
            capped_solves=CAPPED_SOLVES)
    assert (
        lanes["native"].solver_iterations
        == lanes["library"].solver_iterations
    )
