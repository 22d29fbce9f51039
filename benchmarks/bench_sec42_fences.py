"""Section 4.2/4.3: missing fences and the typical failure modes.

For each implementation the experiment checks that

* the unfenced algorithm fails on the Relaxed model,
* the fenced version (Fig. 9 for msn) passes,
* the unfenced version is correct under sequential consistency, and
* fence synthesis repairs the unfenced version with a verified, 1-minimal
  fence set no larger than the hand-placed one (Section 4.3)

— i.e. the algorithms are correct as published but *require* fences on
relaxed machines, which is the paper's central finding.  The counterexample
printed for ``msn`` shows the "incomplete initialization" failure of
Section 4.3.
"""

import pytest

from repro.core import CheckSession
from repro.datatypes import get_implementation
from repro.harness.catalog import get_test
from repro.harness.runner import fence_experiment


def check(implementation, test, model):
    """One check in a fresh session: compile, mine, encode and solve."""
    return CheckSession(implementation).check(test, model)

_CASES = [
    ("msn", "T0"),
    ("ms2", "T0"),
    ("harris", "Sac"),
    ("lazylist", "Sac"),
    ("snark", "D0"),
]


@pytest.mark.parametrize("implementation,test_name", _CASES)
def test_fences_required_on_relaxed(run_once, implementation, test_name, capsys):
    outcome = run_once(fence_experiment, implementation, test_name)
    assert outcome.reproduces_paper, (
        f"{implementation}: fenced_relaxed={outcome.fenced_passes_relaxed} "
        f"unfenced_fails={outcome.unfenced_fails_relaxed} "
        f"unfenced_sc={outcome.unfenced_passes_sc}"
    )
    assert outcome.synthesis_repairs
    with capsys.disabled():
        print(
            f"\nSection 4.2 {implementation}/{test_name}: unfenced fails on "
            f"Relaxed, fenced passes, unfenced passes on SC — as in the paper"
        )


def test_sec43_incomplete_initialization_counterexample(run_once, capsys):
    """The canonical Section 4.3 failure: the dequeuer observes node fields
    before the enqueuer's initializing stores are performed."""
    result = run_once(
        check, get_implementation("msn-unfenced"), get_test("queue", "T0"), "relaxed"
    )
    assert result.failed
    with capsys.disabled():
        print("\nSection 4.3 — incomplete initialization counterexample (msn):")
        print(result.counterexample.format())


def test_sec42_tso_needs_no_fences(run_once):
    """Section 4.2: only load-load and store-store fences were needed, so the
    algorithms work unchanged on architectures that keep those orders
    (e.g. SPARC TSO / IBM zSeries)."""
    result = run_once(
        check, get_implementation("msn-unfenced"), get_test("queue", "T0"), "tso"
    )
    assert result.passed
