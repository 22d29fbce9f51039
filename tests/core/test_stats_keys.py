"""Pinned key sets of the statistics views.

Benchmark JSON, ``matrix --json`` cells and persistent-store payloads are
read by tools and by later runs, so a refactor of the statistics records
may add keys, but a key goes only with the code that fills it, and
CHANGES.md names it.  Each set below is the full key set of its view
when the pin was taken.
"""

import pytest

from repro.core.results import CheckStatistics
from repro.core.store import result_payload
from repro.harness.matrix import MatrixCell, run_matrix
from repro.sat.solver import SolverStats

SOLVER_STATS_KEYS = {
    "decisions", "propagations", "conflicts", "restarts", "learned_clauses",
    "deleted_clauses", "max_decision_level",
}

SOLVER_DICT_KEYS = {
    "backend", "counters_available", "decisions", "propagations",
    "conflicts", "restarts", "learned_clauses", "deleted_clauses",
}

ORDER_DICT_KEYS = {
    "accesses", "order_pairs", "order_vars", "order_pairs_static",
    "transitivity_clauses", "value_clauses", "cnf_variables", "cnf_clauses",
}

PHASE_DICT_KEYS = {
    "compile_seconds", "mining_seconds", "encode_seconds",
    "skeleton_seconds", "layer_seconds", "skeleton_shared",
    "solve_seconds", "total_seconds", "store_hit", "degraded",
}

STORE_STATS_KEYS = {
    "implementation", "test", "memory_model", "instructions", "loads",
    "stores", "accesses", "cnf_variables", "cnf_clauses", "order_pairs",
    "order_vars", "order_pairs_static", "transitivity_clauses",
    "observation_set_size", "compile_seconds", "mining_seconds",
    "encode_seconds", "skeleton_seconds", "layer_seconds", "skeleton_shared",
    "solve_seconds", "total_seconds", "store_hit", "solver_conflicts",
    "solver_decisions", "solver_propagations", "solver_restarts",
    "solver_learned_clauses", "solver_deleted_clauses", "solver_backend",
    "solver_counters_available", "degraded",
}

MATRIX_CELL_STATS_KEYS = {
    "backend", "cnf_clauses", "cnf_variables", "observation_set_size",
    "solver_decisions", "solver_conflicts", "compile_seconds",
    "mining_seconds", "encode_seconds", "skeleton_seconds", "layer_seconds",
    "skeleton_shared", "solve_seconds", "total_seconds", "store_hit",
    "degraded",
}


@pytest.fixture(scope="module")
def catalog_cell():
    """One completed catalog cell: its CellResult and its JSON form."""
    matrix = run_matrix([MatrixCell("msn", "T0", "sc")], jobs=1)
    cell = matrix.results[0]
    assert cell.verdict == "PASS", cell.error
    return cell, matrix.as_dict()["cells"][0]


def _missing(expected: set, view: dict) -> set:
    return expected - set(view)


def test_solver_stats_keys():
    assert not _missing(SOLVER_STATS_KEYS, SolverStats().as_dict())


def test_check_statistics_views():
    stats = CheckStatistics()
    assert not _missing(SOLVER_DICT_KEYS, stats.solver_dict())
    assert not _missing(ORDER_DICT_KEYS, stats.order_dict())
    assert not _missing(PHASE_DICT_KEYS, stats.phase_dict())


def test_store_payload_stats_keys(catalog_cell):
    cell, _ = catalog_cell
    assert not _missing(STORE_STATS_KEYS, result_payload(cell.result)["stats"])


def test_matrix_catalog_cell_stats_keys(catalog_cell):
    _, payload = catalog_cell
    assert not _missing(MATRIX_CELL_STATS_KEYS, payload["stats"])
