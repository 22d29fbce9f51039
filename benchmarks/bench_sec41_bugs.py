"""Section 4.1: the bugs found by the checker.

* the snark deque's double-pop bug (reintroduced in the ``snark-buggy``
  variant, exposed on the minimal single-element test), and
* the lazy-list missing-initialization bug (``lazylist-buggy``), which is
  independent of the memory model.
"""

import pytest

from repro.core import CheckSession
from repro.datatypes import get_implementation
from repro.harness.bugtests import deque_double_pop_test, lazylist_missing_init_test


def check(implementation, test, model):
    """One check in a fresh session: compile, mine, encode and solve."""
    return CheckSession(implementation).check(test, model)


def test_snark_double_pop_bug(run_once, capsys):
    result = run_once(
        check, get_implementation("snark-buggy"), deque_double_pop_test(), "sc"
    )
    assert result.failed
    with capsys.disabled():
        print("\nSection 4.1 — snark double-pop counterexample:")
        print(result.counterexample.format())


def test_snark_fixed_passes(run_once):
    result = run_once(
        check, get_implementation("snark"), deque_double_pop_test(), "sc"
    )
    assert result.passed


def test_lazylist_missing_initialization_bug(run_once, capsys):
    result = run_once(
        check, get_implementation("lazylist-buggy"), lazylist_missing_init_test(),
        "sc",
    )
    assert result.failed
    with capsys.disabled():
        print("\nSection 4.1 — lazylist missing-initialization counterexample:")
        print(result.counterexample.format())


def test_lazylist_fixed_passes(run_once):
    result = run_once(
        check, get_implementation("lazylist"), lazylist_missing_init_test(), "sc"
    )
    assert result.passed
