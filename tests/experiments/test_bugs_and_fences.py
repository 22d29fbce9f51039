"""Experiment tests reproducing the qualitative findings of Section 4.1/4.2.

These are the headline results of the paper:

* every one of the five implementations needs memory ordering fences on the
  Relaxed model (the original algorithms are correct under SC);
* the fenced versions pass, and fence synthesis repairs each unfenced one
  with a verified, 1-minimal set no larger than the hand-placed one
  (Section 4.3);
* the snark deque has a (reintroduced) double-pop bug;
* the lazy list set has a missing-initialization bug that is independent of
  the memory model.

The larger catalog tests are covered by the benchmarks; here we keep to the
small tests so the suite stays fast.
"""

import pytest

from repro.core import CheckSession
from repro.datatypes import get_implementation
from repro.harness.bugtests import deque_double_pop_test, lazylist_missing_init_test
from repro.harness.catalog import get_test
from repro.harness.runner import fence_experiment


def check(implementation, test, model):
    """One check in a fresh session."""
    return CheckSession(implementation).check(test, model)


class TestSection42MissingFences:
    """Unfenced algorithms fail on Relaxed; fenced ones pass; SC is fine."""

    @pytest.mark.parametrize(
        "implementation,test_name",
        [("msn", "T0"), ("ms2", "T0"), ("harris", "Sac")],
    )
    def test_fences_required_and_sufficient(self, implementation, test_name):
        outcome = fence_experiment(implementation, test_name)
        assert outcome.reproduces_paper, (
            f"{implementation}/{test_name}: fenced_relaxed="
            f"{outcome.fenced_passes_relaxed}, unfenced_relaxed_fails="
            f"{outcome.unfenced_fails_relaxed}, unfenced_sc="
            f"{outcome.unfenced_passes_sc}"
        )
        assert outcome.synthesis_repairs

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "implementation,test_name",
        [("lazylist", "Sac"), ("snark", "D0")],
    )
    def test_fences_required_and_sufficient_slow(self, implementation, test_name):
        outcome = fence_experiment(implementation, test_name)
        assert outcome.reproduces_paper
        assert outcome.synthesis_repairs

    def test_incomplete_initialization_failure_mode(self):
        """Section 4.3: without the store-store fence the reader can observe
        a node before its fields are initialized."""
        result = check(
            get_implementation("msn-unfenced"), get_test("queue", "T0"), "relaxed"
        )
        assert result.failed
        # The counterexample must involve the dequeuer observing a value that
        # was never enqueued (or a success on an effectively empty queue).
        observation = dict(
            zip(result.specification.labels, result.counterexample.observation)
        )
        dequeue_ok = observation["t1.0.dequeue.ret"]
        dequeue_value = observation["t1.0.dequeue.out0"]
        enqueue_arg = observation["t0.0.enqueue.arg0"]
        assert dequeue_ok == 1 and dequeue_value != enqueue_arg

    def test_fenced_queue_also_passes_under_tso_and_pso(self):
        """Section 4.2 notes only load-load and store-store fences are
        needed, so TSO-like machines run the algorithm correctly as well."""
        for model in ("tso", "pso"):
            assert check(
                get_implementation("msn"), get_test("queue", "T0"), model
            ).passed

    def test_unfenced_queue_passes_tso(self):
        """TSO keeps load-load and store-store order, so the unfenced queue
        is correct there (the paper's observation about SPARC TSO/zSeries)."""
        assert check(
            get_implementation("msn-unfenced"), get_test("queue", "T0"), "tso"
        ).passed


class TestSection41Bugs:
    def test_snark_double_pop_bug_found(self):
        """The buggy deque lets both ends pop the same single element."""
        result = check(
            get_implementation("snark-buggy"), deque_double_pop_test(), "sc"
        )
        assert result.failed
        observation = dict(
            zip(result.specification.labels, result.counterexample.observation)
        )
        left = observation["t1.0.remove_left.ret"]
        right = observation["t0.0.remove_right.ret"]
        pushed = observation["init.1.add_left.arg0"]
        assert left == right == pushed

    def test_fixed_deque_passes_the_same_test(self):
        assert check(get_implementation("snark"), deque_double_pop_test(), "sc").passed

    def test_lazylist_missing_initialization_bug_found(self):
        """The published pseudocode forgets to initialize 'marked'; the
        membership test can then miss an element that was never removed.
        The bug is independent of the memory model (it shows under SC)."""
        result = check(
            get_implementation("lazylist-buggy"), lazylist_missing_init_test(), "sc"
        )
        assert result.failed

    def test_fixed_lazylist_passes_the_same_test(self):
        assert check(
            get_implementation("lazylist"), lazylist_missing_init_test(), "sc"
        ).passed
