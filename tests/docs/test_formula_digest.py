"""Tests for ``tools/formula_digest.py``, the per-layer formula digest.

CI runs the whole tool under two ``PYTHONHASHSEED`` values and requires
equal totals; these tests check what it covers, that its digest sees
every part of a layer, and that the total is the pinned one.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys

import pytest

from repro.datatypes.registry import category_of, get_implementation
from repro.encoding import compile_test, encode_test
from repro.harness.catalog import get_test
from repro.memorymodel.base import get_model

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))
_TOOL = os.path.join(_REPO_ROOT, "tools", "formula_digest.py")

#: The tool's ``total`` line on this tree.  A change that moves a formula
#: on purpose updates it, as it rewrites ``BENCH_4.json``; a refactor that
#: claims byte-identical formulas leaves it as it is.
PINNED_TOTAL = (
    "63d833f39753dd9f469e474b150cd0e5e741c7202b434e57f5a4039cfa84a0c1"
)


@pytest.fixture(scope="module")
def formula_digest():
    spec = importlib.util.spec_from_file_location("formula_digest", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_layers_are_the_small_catalog_and_the_large_rows(formula_digest):
    """Then the instrumented programs of the synthesis pairs."""
    layers = formula_digest.layers()
    assert len(layers) == len(set(layers)) == 28 * 5 + 4 + 4 * 2
    assert layers[0] == ("ms2", "T0", "serial", False)
    assert layers[140:144] == [
        (implementation, test, "relaxed", False)
        for implementation, test in formula_digest.LARGE_ROWS
    ]
    assert layers[144:] == [
        (implementation, test, model, True)
        for implementation, test in formula_digest.SYNTHESIS_PAIRS
        for model in ("pso", "relaxed")
    ]
    assert {layer[2] for layer in layers} == set(formula_digest.MODELS)
    names = [formula_digest.layer_name(*layer) for layer in layers]
    assert len(set(names)) == len(names)
    assert names[144] == "msn-unfenced/T0@pso instrumented"


def test_a_synthesis_layer_has_fence_selectors(formula_digest):
    """The instrumented program is the one synthesis encodes: every
    candidate fence slot has a selector variable."""
    from repro.core.synthesize import instrument_program
    from repro.lang import compile_c

    implementation = get_implementation("msn-unfenced")
    program, candidates = instrument_program(
        compile_c(implementation.source, implementation.name)
    )
    compiled = compile_test(
        implementation, get_test(category_of("msn-unfenced"), "T0"),
        program=program,
    )
    encoded = encode_test(compiled, get_model("pso"))
    assert encoded.fence_selectors
    assert set(encoded.fence_selectors) <= {c.label for c in candidates}


def test_the_digest_total_is_pinned(formula_digest):
    total = hashlib.sha256()
    for name, digest in formula_digest.digests():
        total.update(f"{name} {digest}\n".encode())  # as main() prints it
    assert total.hexdigest() == PINNED_TOTAL


def _encoded(model: str):
    compiled = compile_test(
        get_implementation("msn"), get_test(category_of("msn"), "T0")
    )
    return encode_test(compiled, get_model(model))


def test_equal_formulas_have_equal_digests(formula_digest):
    assert formula_digest.layer_digest(_encoded("tso")) == (
        formula_digest.layer_digest(_encoded("tso"))
    )
    assert formula_digest.layer_digest(_encoded("tso")) != (
        formula_digest.layer_digest(_encoded("pso"))
    )


@pytest.mark.parametrize("change", [
    "variable", "clause", "clause end", "selector", "order entry",
])
def test_every_part_of_a_layer_moves_the_digest(formula_digest, change):
    encoded = _encoded("relaxed")
    before = formula_digest.layer_digest(encoded)
    cnf = encoded.cnf
    if change == "variable":
        cnf.new_var()
    elif change == "clause":
        cnf.add_clause([1])
    elif change == "clause end":
        cnf._ends[0] += 1
    elif change == "selector":
        load, selectors = next(iter(encoded.order.sources.items()))
        encoded.order.sources[load] = selectors[::-1] + [(None, 1)]
    else:
        table = encoded.order.table
        live = next(
            i for i, lit in enumerate(table) if lit not in (None, 1, -1)
        )
        table[live] = -table[live]
    assert formula_digest.layer_digest(encoded) != before


def test_the_tool_takes_no_flags():
    run = subprocess.run(
        [sys.executable, _TOOL, "--help"], capture_output=True, text=True
    )
    assert run.returncode == 2
    assert "takes no flags" in run.stderr
