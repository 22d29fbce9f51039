"""Fig. 10: inclusion-check statistics.

For each (implementation, test) pair the paper reports the size of the
unrolled code, the encoding time, the CNF size, the SAT time, and the total
time, and plots time/memory against the number of memory accesses.  This
benchmark regenerates those rows for the small (and, with CHECKFENCE_LARGE=1,
the medium) catalog tests and prints the table plus the time-vs-accesses
scatter, whose steep growth is the "shape" of Fig. 10b.
"""

import pytest

# Aliased so pytest does not collect the helper as a test (it used to error
# out the module under a bare ``test_names`` import).
from repro.harness.catalog import test_names as catalog_test_names
from repro.harness.reporting import ascii_scatter, format_table
from repro.harness.runner import check_catalog_test, large_tests_enabled

_ROWS = []

_CASES = [
    ("msn", [name for name in catalog_test_names("queue", "small")]),
    ("ms2", [name for name in catalog_test_names("queue", "small")]),
    ("harris", ["Sac", "Sar"]),
    ("lazylist", ["Sac"]),
    ("snark", ["D0"]),
]
if large_tests_enabled():
    _CASES += [
        ("msn", catalog_test_names("queue", "medium")),
        ("lazylist", ["Sacr", "Saacr"]),
        ("snark", ["Da", "Db"]),
    ]

_FLAT = [(impl, test) for impl, tests in _CASES for test in tests]


@pytest.mark.parametrize("implementation,test_name", _FLAT)
def test_inclusion_check_row(benchmark, attach_solver_stats, implementation, test_name):
    result = benchmark.pedantic(
        check_catalog_test, args=(implementation, test_name, "relaxed"),
        rounds=1, iterations=1,
    )
    row = result.stats
    attach_solver_stats(row.solver_dict())
    benchmark.extra_info["order"] = row.order_dict()
    assert result.passed, f"{implementation}/{test_name} unexpectedly failed"
    assert row.cnf_clauses > 0
    _ROWS.append(row)


def test_zzz_report_fig10_table(capsys):
    """Aggregate the rows produced above into the Fig. 10 table and chart."""
    assert _ROWS, "inclusion rows should have been collected"
    headers = ["impl", "test", "instrs", "loads", "stores", "encode[s]",
               "vars", "clauses", "solve[s]", "total[s]"]
    rows = [
        (r.implementation, r.test, r.instructions, r.loads, r.stores,
         f"{r.encode_seconds:.2f}", r.cnf_variables, r.cnf_clauses,
         f"{r.solve_seconds:.2f}", f"{r.total_seconds:.2f}")
        for r in _ROWS
    ]
    points = [
        (r.loads + r.stores, max(r.total_seconds, 1e-3), r.implementation[0])
        for r in _ROWS
    ]
    with capsys.disabled():
        print("\nFig. 10 (a): inclusion check statistics\n")
        print(format_table(headers, rows))
        print("\nFig. 10 (b): total time vs. memory accesses (log-log)\n")
        print(ascii_scatter(points, x_label="memory accesses in unrolled code",
                            y_label="total check time [s]"))
