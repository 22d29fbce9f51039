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
    ("msn", "T0"): (130, 810, 3600),  # small
    ("msn", "Ti2"): (520, 7760, 20200),  # small
    ("msn", "Tpc2"): (510, 7730, 16900),  # small
    ("msn", "T1"): (660, 10800, 20600),  # medium
    ("msn", "Tpc3"): (1130, 26300, 43600),  # medium
    ("msn", "Ti3"): (750, 13700, 29800),  # medium
    ("msn", "T53"): (1110, 25800, 43400),  # medium
    ("msn", "T54"): (1420, 37000, 56000),  # medium
    ("msn", "T55"): (1600, 43300, 63300),  # medium
    ("msn", "T56"): (1670, 45700, 66200),  # medium
    ("msn", "Tpc4"): (1990, 62700, 95900),  # large
    ("msn", "Tpc5"): (3080, 122700, 172500),  # large
    ("msn", "Tpc6"): (4410, 212200, 282800),  # large
    ("ms2", "T0"): (150, 1120, 2900),  # small
    ("ms2", "Ti2"): (590, 9960, 15300),  # small
    ("ms2", "Tpc2"): (590, 10300, 14800),  # small
    ("ms2", "T1"): (720, 13500, 18300),  # medium
    ("ms2", "Tpc3"): (1330, 36300, 44900),  # medium
    ("ms2", "Ti3"): (980, 22400, 31000),  # medium
    ("ms2", "T53"): (1170, 30500, 38100),  # medium
    ("ms2", "T54"): (1380, 38100, 46100),  # medium
    ("ms2", "T55"): (1500, 42400, 50700),  # medium
    ("ms2", "T56"): (1550, 43800, 52300),  # medium
    ("ms2", "Tpc4"): (2300, 84200, 100600),  # large
    ("ms2", "Tpc5"): (3560, 165000, 189700),  # large
    ("ms2", "Tpc6"): (5100, 284600, 319400),  # large
    ("harris", "Sac"): (190, 1510, 14600),  # small
    ("harris", "Sar"): (300, 3150, 22800),  # small
    ("harris", "Saa"): (290, 2930, 22100),  # small
    ("harris", "Sacr"): (410, 4320, 30600),  # medium
    ("harris", "Saacr"): (410, 4320, 43400),  # medium
    ("harris", "Sarr"): (660, 9850, 45200),  # medium
    ("harris", "Sacr2"): (410, 4320, 90300),  # large
    ("harris", "Saaarr"): (410, 5040, 91900),  # large
    ("harris", "S1"): (1490, 27500, 102400),  # large
    ("lazylist", "Sac"): (390, 5050, 29900),  # small
    ("lazylist", "Sar"): (1000, 22900, 76700),  # small
    ("lazylist", "Saa"): (1110, 27100, 91700),  # small
    ("lazylist", "Sacr"): (1330, 32600, 101200),  # medium
    ("lazylist", "Saacr"): (1330, 32600, 166800),  # medium
    ("lazylist", "Sarr"): (2480, 88900, 210600),  # medium
    ("lazylist", "Sacr2"): (1330, 32600, 319600),  # large
    ("lazylist", "Saaarr"): (1170, 28700, 318000),  # large
    ("lazylist", "S1"): (6040, 310700, 644800),  # large
    ("snark", "D0"): (350, 4170, 18600),  # small
    ("snark", "Da"): (330, 4120, 32200),  # small
    ("snark", "Db"): (400, 5280, 19700),  # medium
    ("snark", "Dm"): (1740, 50900, 112000),  # medium
    ("snark", "Dq"): (1990, 58700, 126300),  # large
}

#: The Seriality model (spec mining) keeps every cross-invocation pair
#: live, so its formula is larger than Relaxed's on the same test.
SERIAL_CEILING = ("msn", "T0", (140, 1400, 4600))


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
