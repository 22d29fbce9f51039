"""Reproducing the lazy-list bug the paper found (Section 4.1).

The published pseudocode of the lazy list-based set forgets to initialize
the ``marked`` field of a newly inserted node.  A concurrent (or even a
later, single-threaded!) membership test can then treat the new node as
logically deleted.  This example checks the buggy and the fixed variant and
prints the counterexample trace for the buggy one.

Run with:  python examples/lazylist_bug_hunt.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import CheckSession
from repro.datatypes import get_implementation
from repro.harness.bugtests import lazylist_missing_init_test
from repro.harness.catalog import get_test


def main() -> None:
    test = lazylist_missing_init_test()
    print("Test:", test.description, "— add an element, then look it up.")
    print()

    buggy = CheckSession(get_implementation("lazylist-buggy"))
    result = buggy.check(test, "sc")
    print("lazylist-buggy under sequential consistency:",
          "PASS" if result.passed else "FAIL")
    if result.counterexample:
        print()
        print(result.counterexample.format())
        print()
        print("The membership test returned 'absent' although the element was"
              " added and never removed: the uninitialized 'marked' field made"
              " the node look deleted.  Note the failure needs no memory-model"
              " relaxation at all — it is an algorithmic bug.")
    print()

    fixed = CheckSession(get_implementation("lazylist"))
    result = fixed.check(test, "sc")
    print("lazylist (marked field initialized):",
          "PASS" if result.passed else "FAIL")

    # The fenced version is also correct on the Relaxed model for the small
    # concurrent test of Fig. 8.
    result = fixed.check(get_test("set", "Sac"), "relaxed")
    print("lazylist on Relaxed, test Sac ( add | contains ):",
          "PASS" if result.passed else "FAIL")


if __name__ == "__main__":
    main()
