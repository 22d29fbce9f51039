"""Which fences does the non-blocking queue actually need?

Section 4.2/4.3 of the paper explains where each fence in Fig. 9 comes from.
This example removes one fence at a time from the fenced queue and re-checks
the small queue tests, showing which fences are *necessary* (removing them
reintroduces failures on Relaxed) — the same workflow an algorithm designer
would use with the tool.

Run with:  python examples/find_queue_fences.py
"""

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import CheckSession, get_test
from repro.datatypes import get_implementation


def fence_positions(source: str) -> list[int]:
    """Character offsets of every fence() call in the source."""
    return [match.start() for match in re.finditer(r'fence\("[a-z-]+"\);', source)]


def remove_fence(source: str, index: int) -> tuple[str, str]:
    """Remove the index-th fence call; returns (new source, fence text)."""
    matches = list(re.finditer(r'fence\("[a-z-]+"\);', source))
    match = matches[index]
    removed = match.group(0)
    return source[:match.start()] + source[match.end():], removed


def line_of(source: str, offset: int) -> int:
    return source.count("\n", 0, offset) + 1


def main() -> None:
    base = get_implementation("msn")
    tests = [get_test("queue", name) for name in ("T0", "Ti2")]
    positions = fence_positions(base.source)
    print(f"The fenced queue (Fig. 9) contains {len(positions)} fences.")
    print("Removing each in turn and re-checking on the Relaxed model:\n")

    necessary = 0
    for index in range(len(positions)):
        source, removed = remove_fence(base.source, index)
        variant = base.with_source(source, f"minus-fence-{index}")
        session = CheckSession(variant)
        failing_test = None
        for test in tests:
            if session.check(test, "relaxed").failed:
                failing_test = test.name
                break
        line = line_of(base.source, fence_positions(base.source)[index])
        if failing_test is None:
            print(f"  fence #{index:<2} (line {line:3}, {removed:24s}): not needed "
                  f"for these small tests")
        else:
            necessary += 1
            print(f"  fence #{index:<2} (line {line:3}, {removed:24s}): NECESSARY "
                  f"(removing it breaks test {failing_test})")

    print(f"\n{necessary} of {len(positions)} fences are required already by "
          f"these two small tests; the remaining ones are exercised by the "
          f"larger tests of Fig. 8.")


if __name__ == "__main__":
    main()
