"""The memory-order table: one CNF literal per ordered access pair.

``MemoryOrderEncoding.table[i * n + j]`` holds the literal of
``accesses[i] <M accesses[j]``: ``1``/``-1`` for a statically resolved
pair, an order variable or its negation for a live pair, ``None`` for a
dead pair.  These properties run over the litmus catalog and a few
small-catalog tests under the five memory models, and check that an
access's index is its position in the access table for catalog, litmus
and fuzz programs alike.
"""

from __future__ import annotations

import random

import pytest

from repro.datatypes.registry import category_of, get_implementation
from repro.encoding import compile_test, encode_test
from repro.encoding.formula import skeleton_for
from repro.fuzz import generate_program
from repro.harness.catalog import get_test
from repro.litmus.catalog import available_litmus_tests, compiled_litmus
from repro.memorymodel.base import get_model
from repro.sat.circuit import Circuit

MODELS = ["serial", "sc", "tso", "pso", "relaxed"]

#: Small-catalog tests with atomic blocks (snark/D0), fences (ms2/T0) and
#: a set (lazylist/Sac).
CATALOG = [("msn", "T0"), ("ms2", "T0"), ("snark", "D0"), ("lazylist", "Sac")]


def _catalog(implementation: str, test: str):
    return compile_test(
        get_implementation(implementation),
        get_test(category_of(implementation), test),
    )


def _programs():
    for name, litmus in available_litmus_tests().items():
        yield f"litmus/{name}", compiled_litmus(litmus)
    for implementation, test in CATALOG:
        yield f"{implementation}/{test}", _catalog(implementation, test)


PROGRAMS = list(_programs())


@pytest.mark.parametrize("model", MODELS)
def test_table_entries_are_consistent_literals(model):
    for name, compiled in PROGRAMS:
        encoded = encode_test(compiled, get_model(model))
        order = encoded.order
        table = order.table
        n = len(order.accesses)
        assert len(table) == n * n, name
        static = 0
        pairs_of_var: dict[int, list[tuple[int, int]]] = {}
        for i in range(n):
            assert table[i * n + i] is None, (name, i)
            for j in range(i + 1, n):
                lit = table[i * n + j]
                mirror = table[j * n + i]
                if lit is None:
                    assert mirror is None, (name, i, j)
                    continue
                assert mirror == -lit, (name, i, j)
                if abs(lit) == Circuit.TRUE:
                    assert lit in (Circuit.TRUE, Circuit.FALSE)
                    static += 1
                else:
                    pairs_of_var.setdefault(abs(lit), []).append((i, j))
        stats = encoded.stats
        assert static == stats.order_pairs_static, name
        assert len(pairs_of_var) == stats.order_vars, name
        assert all(len(p) == 1 for p in pairs_of_var.values()), name
        assert all(
            var <= encoded.cnf.num_vars for var in pairs_of_var
        ), name


def test_access_index_is_table_position():
    compiled = [c for _, c in PROGRAMS]
    rng = random.Random(7)
    compiled += [generate_program(rng).compile() for _ in range(20)]
    for program in compiled:
        table = skeleton_for(program)[0].table
        assert table.accesses
        assert [a.index for a in table.accesses] == list(
            range(len(table.accesses))
        )
