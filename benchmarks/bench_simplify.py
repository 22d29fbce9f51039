"""CNF preprocessing benchmark: reduction gates + simplify on/off stats.

Two gates ride along:

* on the **two largest** Fig. 8 tests (lazylist/Saaarr and msn/Tpc6 by
  post-pruning clause count) the SatELite-style preprocessor
  (:mod:`repro.sat.simplify`) must remove at least **30%** of the lowered
  clauses — the headline reduction cannot silently regress;
* a full check run with simplification forced on must stay
  verdict-identical to the unsimplified run, with the preprocessing
  counters (vars_eliminated, clauses_subsumed, equiv_merged,
  preprocess_seconds) recorded next to the solver counters in the
  benchmark JSON, so it carries both sides of the A/B.

Only encoding + preprocessing runs for the reduction gate (no solving),
which keeps even the large tests affordable in CI.
"""

import pytest

from repro.core.checker import CheckOptions
from repro.core.specification import SatSpecificationMiner
from repro.datatypes.registry import category_of, get_implementation
from repro.encoding import compile_test, encode_test
from repro.harness.catalog import get_test
from repro.harness.runner import check_catalog_test
from repro.memorymodel.base import get_model
from repro.sat.backend import make_backend_factory
from repro.sat.simplify import simplify_cnf

#: The two largest Fig. 8 catalog tests by post-pruning CNF size under
#: relaxed (lazylist/Saaarr: ~196k clauses, msn/Tpc6: ~232k clauses;
#: preprocessing removes about 44% and 51% of them) — the pair the >=30%
#: clause-reduction acceptance gate is pinned to.
LARGEST = [("lazylist", "Saaarr"), ("msn", "Tpc6")]

#: Minimum fraction of clauses preprocessing must remove on LARGEST.
REDUCTION_GATE = 0.30


def _preprocess_stats(implementation_name: str, test_name: str):
    implementation = get_implementation(implementation_name)
    test = get_test(category_of(implementation_name), test_name)
    compiled = compile_test(implementation, test)
    encoded = encode_test(compiled, get_model("relaxed"))
    _, simplifier = simplify_cnf(
        encoded.cnf, frozen=encoded.frozen_variables()
    )
    return simplifier.stats


@pytest.mark.parametrize("implementation,test_name", LARGEST)
def test_two_largest_lose_at_least_30_percent_of_clauses(
    benchmark, implementation, test_name
):
    """Acceptance gate: >=30% post-preprocessing clause reduction."""
    stats = benchmark.pedantic(
        _preprocess_stats, args=(implementation, test_name),
        rounds=1, iterations=1,
    )
    benchmark.extra_info["simplify"] = stats.as_dict()
    benchmark.extra_info["simplify"]["clause_reduction"] = (
        stats.clause_reduction
    )
    assert stats.clause_reduction >= REDUCTION_GATE, (
        f"{implementation}/{test_name}: preprocessing removed only "
        f"{100 * stats.clause_reduction:.1f}% of clauses "
        f"({stats.clauses_before} -> {stats.clauses_after})"
    )


def test_check_solver_stats_simplify_on_vs_off(benchmark, monkeypatch):
    """One full check (msn/Ti2 on Relaxed) with the preprocessor forced on
    (``CHECKFENCE_SIMPLIFY=1``) vs the default native stack:
    verdict-identical, with both solver-counter sets embedded in the
    benchmark JSON."""

    def run_both():
        monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "1")
        on = check_catalog_test("msn", "Ti2", "relaxed", CheckOptions())
        monkeypatch.delenv("CHECKFENCE_SIMPLIFY")
        off = check_catalog_test("msn", "Ti2", "relaxed", CheckOptions())
        return on, off

    on_result, off_result = benchmark.pedantic(
        run_both, rounds=1, iterations=1
    )
    on, off = on_result.stats, off_result.stats
    benchmark.extra_info["simplify_on"] = {
        "total_seconds": on.total_seconds,
        "solve_seconds": on.solve_seconds,
        **on.solver_dict(),
    }
    benchmark.extra_info["simplify_off"] = {
        "total_seconds": off.total_seconds,
        "solve_seconds": off.solve_seconds,
        **off.solver_dict(),
    }
    assert on_result.passed == off_result.passed
    assert on.solver_backend.startswith("simplify+")
    assert not off.solver_backend.startswith("simplify+")
    assert on.solver_vars_eliminated > 0
    assert on.solver_preprocess_seconds > 0.0
    assert off.solver_vars_eliminated == 0


def test_outcome_mining_simplify_on_vs_off(benchmark, monkeypatch):
    """The solve/block enumeration loop (SAT specification mining on
    msn/Ti2) — the workload projected blocking + preprocessing targets:
    identical observation sets, both timings recorded."""
    monkeypatch.setenv("CHECKFENCE_SIMPLIFY", "1")
    forced = make_backend_factory()
    monkeypatch.delenv("CHECKFENCE_SIMPLIFY")
    default = make_backend_factory()
    implementation = get_implementation("msn")
    test = get_test("queue", "Ti2")
    compiled = compile_test(implementation, test)

    def mine_both():
        on = SatSpecificationMiner(compiled, backend_factory=forced).mine()
        off = SatSpecificationMiner(compiled, backend_factory=default).mine()
        return on, off

    on, off = benchmark.pedantic(mine_both, rounds=1, iterations=1)
    benchmark.extra_info["mining"] = {
        "observations": len(on),
        "solves": on.solver_iterations,
        "seconds_simplify_on": on.mining_seconds,
        "seconds_simplify_off": off.mining_seconds,
    }
    assert on.observations == off.observations
