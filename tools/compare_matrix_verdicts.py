#!/usr/bin/env python3
"""Assert two matrix runs are verdict-identical.

Each file is the output of ``checkfence matrix --json`` or ``checkfence
fuzz --json`` (whose matrix sits under ``"matrix"``).  CI runs the
small-catalog matrix once per solver backend, matrix and fuzz campaigns
once cold and once warm against the persistent store, and a chaos run
once faulty and once resumed through the store, and feeds both JSON
files here; any per-cell verdict difference (or a cell present in one
run only) fails with a readable diff.  Timing and counters are ignored —
only (implementation, test, model) -> verdict matters, and for a FAIL
cell also the kind of its counterexample (``assertion`` or
``observation``, from the first line of its text, ``counterexample
(assertion) for ...``): a refactor that turns an assertion failure into
an observation failure has changed what the check reports.  (On a cell
where both kinds exist the check reports the kind its solver's model
shows, so two solver backends may differ there.)

Degraded verdicts (TIMEOUT, OOM, CRASHED) are *incomparable*, not
divergent: they mean a run hit a resource budget or lost a worker before
producing an answer, so a cell that is TIMEOUT on one side carries no
evidence about the other side's PASS/FAIL.  Such cells are skipped and
counted (the summary reports how many were not compared); they never
fail the comparison.  ERROR stays strict — a harness error is a real
difference worth failing on.

With ``--min-store-hit-rate`` the candidate run must additionally have
served at least that fraction of its store lookups from the persistent
cache (``store_hits / (store_hits + store_misses)`` over the matrix
``cache`` totals, which count the lookups of every cell kind) — the
warm-rerun and resume acceptance gate.

Usage::

    python tools/compare_matrix_verdicts.py baseline.json candidate.json
    python tools/compare_matrix_verdicts.py cold.json warm.json \\
        --min-store-hit-rate 0.9
"""

from __future__ import annotations

import argparse
import json
import re
import sys

#: Verdicts that mean "no answer was produced" (resource budget or lost
#: worker); cells carrying one on either side are skipped, not diffed.
INCOMPARABLE = frozenset({"TIMEOUT", "OOM", "CRASHED"})


def _load(path: str) -> dict:
    """The matrix payload of a ``matrix --json`` or ``fuzz --json`` file."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload.get("matrix", payload)


#: The first line of a counterexample's text names its kind.
_KIND = re.compile(r"counterexample \((\w+)\)")


def _verdicts(payload: dict) -> dict[tuple[str, str, str], str]:
    """(implementation, test, model) -> verdict, with the counterexample
    kind appended to a FAIL: ``FAIL (assertion)``."""
    out: dict[tuple[str, str, str], str] = {}
    for cell in payload.get("cells", []):
        key = (cell["implementation"], cell["test"], cell["model"])
        verdict = cell["verdict"]
        kind = _KIND.match(cell.get("counterexample") or "")
        if verdict == "FAIL" and kind:
            verdict = f"FAIL ({kind.group(1)})"
        out[key] = verdict
    return out


def _store_hit_rate(payload: dict) -> tuple[float, int, int]:
    cache = payload.get("cache", {})
    hits = int(cache.get("store_hits", 0))
    misses = int(cache.get("store_misses", 0))
    lookups = hits + misses
    return (hits / lookups if lookups else 0.0), hits, misses


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="assert two matrix --json or fuzz --json outputs are "
        "verdict-identical",
    )
    parser.add_argument("baseline", help="baseline matrix or fuzz JSON")
    parser.add_argument("candidate", help="candidate matrix or fuzz JSON")
    parser.add_argument(
        "--min-store-hit-rate", type=float, default=None, metavar="RATE",
        help="additionally require the candidate's persistent-store hit "
        "rate (store_hits / lookups) to be at least RATE (e.g. 0.9)",
    )
    args = parser.parse_args(argv)

    baseline_payload = _load(args.baseline)
    candidate_payload = _load(args.candidate)
    baseline = _verdicts(baseline_payload)
    candidate = _verdicts(candidate_payload)
    if not baseline:
        print(f"no cells in {args.baseline}", file=sys.stderr)
        return 1
    problems = []
    incomparable = []
    for key in sorted(set(baseline) | set(candidate)):
        left = baseline.get(key)
        right = candidate.get(key)
        if left in INCOMPARABLE or right in INCOMPARABLE:
            incomparable.append(
                f"  {'/'.join(key)}: {left or 'missing'} vs "
                f"{right or 'missing'} (not compared)"
            )
            continue
        if left != right:
            name = "/".join(key)
            problems.append(
                f"  {name}: {left or 'missing'} vs {right or 'missing'}"
            )
    if problems:
        print(
            f"verdict mismatch between {args.baseline} and {args.candidate}:\n"
            + "\n".join(problems)
        )
        return 1
    compared = len(set(baseline) | set(candidate)) - len(incomparable)
    print(
        f"{compared} cells verdict-identical "
        f"({args.baseline} vs {args.candidate})"
    )
    if incomparable:
        # Degraded cells are skipped, never silently: say what was not
        # compared so a budget-starved CI run reads as incomplete.
        print(f"{len(incomparable)} cells not comparable "
              "(TIMEOUT/OOM/CRASHED on at least one side):")
        print("\n".join(incomparable))
    if args.min_store_hit_rate is not None:
        rate, hits, misses = _store_hit_rate(candidate_payload)
        print(
            f"candidate store hit rate: {rate:.1%} "
            f"({hits} hits, {misses} misses)"
        )
        if rate < args.min_store_hit_rate:
            print(
                f"store hit rate {rate:.1%} below the required "
                f"{args.min_store_hit_rate:.1%}",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
