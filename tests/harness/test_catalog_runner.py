"""Tests for the Fig. 8 test catalog, the experiment runner, and reporting."""

import pytest

from repro.harness import (
    ascii_scatter,
    breakdown,
    check_catalog_test,
    fence_experiment,
    format_seconds,
    format_table,
    get_test,
    method_comparison,
    mining_point,
    operation_count,
    range_analysis_comparison,
)
from repro.harness import test_names as catalog_test_names
from repro.harness.catalog import DEQUE_TESTS, QUEUE_TESTS, SET_TESTS


class TestCatalog:
    def test_all_fig8_queue_tests_present(self):
        expected = {"T0", "T1", "Tpc2", "Tpc3", "Tpc4", "Tpc5", "Tpc6",
                    "Ti2", "Ti3", "T53", "T54", "T55", "T56"}
        assert expected <= set(QUEUE_TESTS)

    def test_all_fig8_set_tests_present(self):
        expected = {"Sac", "Sar", "Sacr", "Saacr", "Sacr2", "Saaarr", "S1", "Sarr"}
        assert expected <= set(SET_TESTS)

    def test_all_fig8_deque_tests_present(self):
        assert {"D0", "Da", "Db", "Dm", "Dq"} <= set(DEQUE_TESTS)

    def test_t0_structure(self):
        test = get_test("queue", "T0")
        assert test.num_threads == 2
        assert [inv.operation for inv in test.threads[0]] == ["enqueue"]
        assert [inv.operation for inv in test.threads[1]] == ["dequeue"]
        assert test.init[0].operation == "init"
        assert operation_count(test) == 2

    def test_init_sequences(self):
        ti2 = get_test("queue", "Ti2")
        assert [inv.operation for inv in ti2.init] == ["init", "enqueue"]
        saacr = get_test("set", "Saacr")
        assert [inv.operation for inv in saacr.init] == ["init", "add"]

    def test_primed_operations_accepted(self):
        s1 = get_test("set", "S1")
        assert s1.num_threads == 6
        dq = get_test("deque", "Dq")
        assert dq.num_threads == 8

    def test_deque_tokens(self):
        d0 = get_test("deque", "D0")
        assert [inv.operation for inv in d0.threads[0]] == [
            "add_left", "remove_right",
        ]
        assert [inv.operation for inv in d0.threads[1]] == [
            "add_right", "remove_left",
        ]

    def test_arguments_are_symbolic(self):
        test = get_test("queue", "T0")
        enqueue = test.threads[0][0]
        assert enqueue.args == (None,)
        dequeue = test.threads[1][0]
        assert dequeue.args == ()

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            get_test("queue", "T99")
        with pytest.raises(KeyError):
            get_test("stack", "T0")

    def test_size_classes_cover_catalog(self):
        for category, table in [("queue", QUEUE_TESTS), ("set", SET_TESTS),
                                ("deque", DEQUE_TESTS)]:
            sized = (
                set(catalog_test_names(category, "small"))
                | set(catalog_test_names(category, "medium"))
                | set(catalog_test_names(category, "large"))
            )
            assert sized == set(table)

    def test_display(self):
        assert "|" in get_test("queue", "T1").display()


class TestRunner:
    def test_fig10_row_fields(self):
        result = check_catalog_test("msn", "T0", "relaxed")
        row = result.stats
        assert row.loads > 0 and row.stores > 0
        assert row.cnf_clauses > 0
        assert result.passed
        assert row.total_seconds > 0
        assert (row.implementation, row.test) == ("msn", "T0")
        assert row.order_dict()["cnf_clauses"] == row.cnf_clauses

    def test_fence_experiment_reproduces_section_42(self):
        outcome = fence_experiment("msn", "T0")
        assert outcome.fenced_passes_relaxed
        assert outcome.unfenced_fails_relaxed
        assert outcome.unfenced_passes_sc
        assert outcome.reproduces_paper
        assert outcome.counterexample

    def test_mining_point_both_methods(self):
        reference = mining_point("msn", "T0", "reference")
        sat = mining_point("msn", "T0", "sat")
        assert reference.observation_set_size == sat.observation_set_size == 4
        assert reference.mining_seconds >= 0
        assert sat.mining_seconds > 0

    def test_breakdown_shares_sum_to_one(self):
        shares = breakdown("msn", "T0", "relaxed").shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        assert set(shares) == {
            "specification mining",
            "encoding of inclusion test",
            "refutation of inclusion test",
        }

    def test_range_analysis_comparison(self):
        comparison = range_analysis_comparison("msn", "T0")
        assert comparison.with_clauses < comparison.without_clauses
        assert comparison.speedup > 0

    def test_method_comparison_agrees(self):
        comparison = method_comparison("msn", "T0")
        assert comparison.both_agree
        assert comparison.observation_set_seconds > 0
        assert comparison.commit_point_seconds > 0

    def test_check_catalog_test_failure_path(self):
        result = check_catalog_test("msn-unfenced", "T0", "relaxed")
        assert result.failed


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(["a", "bbb"], [[1, 2], ["xxxx", "y"]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_seconds(self):
        assert format_seconds(0.01).endswith("ms")
        assert format_seconds(2.5) == "2.50s"

    def test_ascii_scatter(self):
        points = [(1, 0.1, "a"), (10, 1.0, "b"), (100, 10.0, "c")]
        plot = ascii_scatter(points, x_label="accesses", y_label="seconds")
        assert "accesses" in plot and "seconds" in plot
        assert "a" in plot and "c" in plot

    def test_ascii_scatter_empty(self):
        assert "no data" in ascii_scatter([])
