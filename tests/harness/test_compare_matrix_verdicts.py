"""Tests for ``tools/compare_matrix_verdicts.py``, the verdict-identity
gate between two ``matrix --json`` runs.

They work on made-up matrix payloads: no check runs.
"""

import importlib.util
import json
import os

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


@pytest.fixture(scope="module")
def compare():
    """The tool, loaded by path from the repository root."""
    spec = importlib.util.spec_from_file_location(
        "compare_matrix_verdicts",
        os.path.join(_REPO_ROOT, "tools", "compare_matrix_verdicts.py"),
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cell(test, verdict, kind=None):
    """A catalog cell of ``matrix --json``; a FAIL carries a
    counterexample of ``kind``."""
    text = ""
    if kind is not None:
        text = (
            f"counterexample ({kind}) for lazylist-unfenced on test {test} "
            "under pso\n  observation: t0.0.add.arg0=1"
        )
    return {
        "implementation": "lazylist-unfenced", "test": test, "model": "pso",
        "kind": "catalog", "verdict": verdict, "counterexample": text,
    }


BASELINE = [
    cell("Sac", "PASS"),
    cell("Sar", "FAIL", "assertion"),
    cell("Sacr2", "FAIL", "observation"),
]


def run(compare, tmp_path, baseline, candidate):
    paths = []
    for name, cells in (("baseline", baseline), ("candidate", candidate)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"cells": cells}))
        paths.append(str(path))
    return compare.main(paths)


def test_identical_runs_pass(compare, tmp_path, capsys):
    assert run(compare, tmp_path, BASELINE, BASELINE) == 0
    assert "3 cells verdict-identical" in capsys.readouterr().out


def test_a_verdict_mismatch_fails(compare, tmp_path, capsys):
    candidate = [cell("Sac", "FAIL", "observation")] + BASELINE[1:]
    assert run(compare, tmp_path, BASELINE, candidate) == 1
    assert (
        "lazylist-unfenced/Sac/pso: PASS vs FAIL (observation)"
        in capsys.readouterr().out
    )


def test_a_timeout_cell_is_skipped(compare, tmp_path, capsys):
    candidate = BASELINE[:1] + [cell("Sar", "TIMEOUT")] + BASELINE[2:]
    assert run(compare, tmp_path, BASELINE, candidate) == 0
    out = capsys.readouterr().out
    assert "2 cells verdict-identical" in out
    assert "lazylist-unfenced/Sar/pso: FAIL (assertion) vs TIMEOUT" in out


def test_a_counterexample_kind_mismatch_fails(compare, tmp_path, capsys):
    candidate = BASELINE[:1] + [cell("Sar", "FAIL", "observation")]
    candidate += BASELINE[2:]
    assert run(compare, tmp_path, BASELINE, candidate) == 1
    assert (
        "lazylist-unfenced/Sar/pso: FAIL (assertion) vs FAIL (observation)"
        in capsys.readouterr().out
    )
