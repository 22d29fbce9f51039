"""Quickstart: check a lock-free queue on a relaxed memory model.

Runs the paper's headline experiment on the smallest test: Michael & Scott's
non-blocking queue works under sequential consistency, breaks on the Relaxed
model without fences, and works again once the Fig. 9 fences are added.

Run with:  python examples/quickstart.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import CheckSession, get_implementation, get_test


def run_check(implementation_name: str, model: str) -> None:
    implementation = get_implementation(implementation_name)
    session = CheckSession(implementation)
    test = get_test("queue", "T0")          # ( enqueue | dequeue )
    result = session.check(test, model)
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{implementation_name:15s} under {model:8s}: {verdict} "
          f"({result.stats.accesses} accesses, "
          f"{result.stats.cnf_clauses} CNF clauses, "
          f"{result.stats.total_seconds:.2f}s)")
    if result.counterexample is not None:
        print()
        print(result.counterexample.format())
        print()


def main() -> None:
    print("CheckFence quickstart: Michael & Scott non-blocking queue, test T0")
    print("=" * 70)
    # The published algorithm (no fences) is correct on a sequentially
    # consistent machine ...
    run_check("msn-unfenced", "sc")
    # ... but has incorrect executions on the Relaxed model ...
    run_check("msn-unfenced", "relaxed")
    # ... which the fences of Fig. 9 rule out.
    run_check("msn", "relaxed")


if __name__ == "__main__":
    main()
