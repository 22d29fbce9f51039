"""Encoding-size regression lane: absolute clause-count ceilings.

Every catalog test is encoded once under Relaxed (no solving), and its
order-encoding counters (CNF variables/clauses, order variables,
statically resolved pairs, transitivity clauses) go into the benchmark
JSON under ``extra_info.order``, next to the size of the paper's dense
construction, which is computed arithmetically rather than built: one
variable per access pair and one transitivity clause per ordered triple
of distinct accesses.

Each test's order variables, transitivity clauses and total clauses are
pinned to ceilings about 15% above the values the pruned construction
emitted when the ceilings were set, in the style of
``tests/encoding/test_order_pruning.py::TestSizeCeilings``, so the static
resolution, conflict restriction and pruned transitivity cannot silently
regress.  All of it is encoding only: the whole lane takes seconds.
"""

import pytest

from repro.datatypes.registry import category_of, get_implementation
from repro.encoding import compile_test, encode_test
from repro.harness.catalog import get_test
from repro.memorymodel.base import get_model

#: (implementation, test) -> (max order vars, max transitivity clauses,
#: max CNF clauses) under Relaxed; the comment names the catalog size.
CEILINGS = {
    ("msn", "T0"): (130, 810, 4350),  # small
    ("msn", "Ti2"): (520, 7760, 25300),  # small
    ("msn", "Tpc2"): (510, 7730, 20800),  # small
    ("msn", "T1"): (660, 10800, 26200),  # medium
    ("msn", "Tpc3"): (1130, 26300, 53500),  # medium
    ("msn", "Ti3"): (750, 13700, 37700),  # medium
    ("msn", "T53"): (1110, 25800, 53000),  # medium
    ("msn", "T54"): (1420, 37000, 69000),  # medium
    ("msn", "T55"): (1600, 43300, 79100),  # medium
    ("msn", "T56"): (1670, 45700, 83900),  # medium
    ("msn", "Tpc4"): (1990, 62700, 117100),  # large
    ("msn", "Tpc5"): (3080, 122700, 208000),  # large
    ("msn", "Tpc6"): (4410, 212200, 337300),  # large
    ("ms2", "T0"): (150, 1120, 3130),  # small
    ("ms2", "Ti2"): (590, 9960, 17400),  # small
    ("ms2", "Tpc2"): (590, 10300, 16200),  # small
    ("ms2", "T1"): (720, 13500, 20600),  # medium
    ("ms2", "Tpc3"): (1330, 36300, 48400),  # medium
    ("ms2", "Ti3"): (980, 22400, 35600),  # medium
    ("ms2", "T53"): (1170, 30500, 40700),  # medium
    ("ms2", "T54"): (1380, 38100, 49300),  # medium
    ("ms2", "T55"): (1500, 42400, 54600),  # medium
    ("ms2", "T56"): (1550, 43800, 56700),  # medium
    ("ms2", "Tpc4"): (2300, 84200, 108000),  # large
    ("ms2", "Tpc5"): (3560, 165000, 201900),  # large
    ("ms2", "Tpc6"): (5100, 284600, 338100),  # large
    ("harris", "Sac"): (190, 1510, 16500),  # small
    ("harris", "Sar"): (300, 3150, 27800),  # small
    ("harris", "Saa"): (290, 2930, 26600),  # small
    ("harris", "Sacr"): (410, 4320, 37600),  # medium
    ("harris", "Saacr"): (410, 4320, 53400),  # medium
    ("harris", "Sarr"): (660, 9850, 58100),  # medium
    ("harris", "Sacr2"): (410, 4320, 112800),  # large
    ("harris", "Saaarr"): (410, 5040, 115000),  # large
    ("harris", "S1"): (1490, 27500, 136700),  # large
    ("lazylist", "Sac"): (390, 5050, 37700),  # small
    ("lazylist", "Sar"): (1000, 22900, 109000),  # small
    ("lazylist", "Saa"): (1110, 27100, 125100),  # small
    ("lazylist", "Sacr"): (1330, 32600, 145000),  # medium
    ("lazylist", "Saacr"): (1330, 32600, 229300),  # medium
    ("lazylist", "Sarr"): (2480, 88900, 320300),  # medium
    ("lazylist", "Sacr2"): (1330, 32600, 430500),  # large
    ("lazylist", "Saaarr"): (1170, 28700, 430600),  # large
    ("lazylist", "S1"): (6040, 310700, 989300),  # large
    ("snark", "D0"): (350, 4170, 24700),  # small
    ("snark", "Da"): (330, 4120, 43200),  # small
    ("snark", "Db"): (400, 5280, 26300),  # medium
    ("snark", "Dm"): (1740, 50900, 157800),  # medium
    ("snark", "Dq"): (1990, 58700, 185600),  # large
}

#: The Seriality model (spec mining) keeps every cross-invocation pair
#: live, so its formula is larger than Relaxed's on the same test.
SERIAL_CEILING = ("msn", "T0", (140, 1400, 5210))


def _encode(implementation_name: str, test_name: str, model_name: str):
    implementation = get_implementation(implementation_name)
    test = get_test(category_of(implementation_name), test_name)
    compiled = compile_test(implementation, test)
    return encode_test(compiled, get_model(model_name)).stats


def _check_ceiling(benchmark, implementation, test_name, model, ceiling):
    stats = benchmark.pedantic(
        _encode, args=(implementation, test_name, model),
        rounds=1, iterations=1,
    )
    n = stats.accesses
    benchmark.extra_info["order"] = {
        "pruned": stats.order_dict(),
        "dense_order_vars": n * (n - 1) // 2,
        "dense_transitivity_clauses": n * (n - 1) * (n - 2),
    }
    max_vars, max_transitivity, max_clauses = ceiling
    label = f"{implementation}/{test_name}@{model}"
    assert stats.order_vars <= max_vars, label
    assert stats.transitivity_clauses <= max_transitivity, label
    assert stats.cnf_clauses <= max_clauses, (
        f"{label}: {stats.cnf_clauses} clauses, ceiling {max_clauses}"
    )


@pytest.mark.parametrize("implementation,test_name", sorted(CEILINGS))
def test_clauses_stay_under_ceiling(benchmark, implementation, test_name):
    _check_ceiling(
        benchmark, implementation, test_name, "relaxed",
        CEILINGS[(implementation, test_name)],
    )


def test_serial_model_stays_under_ceiling(benchmark):
    implementation, test_name, ceiling = SERIAL_CEILING
    _check_ceiling(benchmark, implementation, test_name, "serial", ceiling)
