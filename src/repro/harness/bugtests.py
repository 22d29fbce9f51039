"""Minimal tests that expose the Section 4.1 bugs.

The paper found the snark bugs on tests D0/Dq and the lazylist
initialization bug on its set tests; those tests leave all operation
arguments symbolic, which lets the nondeterministic arguments "explain away"
some wrong answers on the smallest tests.  The two tests below are the
minimal scenarios that pin each bug down, with concrete arguments (see
"Substitutions" in docs/paper-map.md); they are used by the Section 4.1
experiment and benchmarks.
"""

from __future__ import annotations

from repro.lsl.program import Invocation, SymbolicTest


def deque_double_pop_test() -> SymbolicTest:
    """One element in the deque, then concurrent pops from both ends.

    The snark failure mode: with the buggy single-CAS pop both ends can
    return the same (single) element, an outcome no serial execution allows.
    """
    return SymbolicTest(
        name="D1",
        threads=[
            [Invocation("remove_right")],
            [Invocation("remove_left")],
        ],
        init=[Invocation("init"), Invocation("add_left", (None,))],
        description="al ( rr | rl )",
    )


def lazylist_missing_init_test() -> SymbolicTest:
    """An element is added during initialization, then looked up.

    With the missing ``marked`` initialization the lookup can report the
    element as absent even though no remove ever ran — the bug the paper
    found in the published lazy-list pseudocode.
    """
    return SymbolicTest(
        name="Sbug",
        threads=[[Invocation("contains", (None,))]],
        init=[Invocation("init"), Invocation("add", (None,))],
        description="a ( c )",
    )
