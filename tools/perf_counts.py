#!/usr/bin/env python3
"""Check perfbench's exact counts against the committed ``BENCH_4.json``.

perfbench's traced run reports, per workload, the numbers the paper judges
a check by (Fig. 10): formula size and SAT effort — ``encoding.clauses``,
``solver.conflicts``, ``synthesize.solves`` and every other metric whose
unit is ``count``.  They repeat exactly from run to run, so this tool runs
every workload of ``BENCHMARK.json`` as

    perfbench/run.py --workload W --seed 1 --seconds 1 --trace 1

and exits 1 when a run exits non-zero, is not ``correct`` (a verdict
missed the answer table, or the traced pass did not repeat the untraced
one), or reports any count that differs from ``BENCH_4.json``.  A change
that moves a count rewrites the file with ``--write`` and says why.

Usage::

    python tools/perf_counts.py            # check
    python tools/perf_counts.py --write    # re-run and rewrite BENCH_4.json
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "BENCH_4.json"


class RunFailed(RuntimeError):
    """A perfbench run exited non-zero or was not ``correct``."""


def workload_names() -> list[str]:
    """The workloads ``BENCHMARK.json`` declares, in its order."""
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    return [workload["name"] for workload in declared["workloads"]]


def workload_command(workload: str) -> str:
    """The traced perfbench run whose counts are pinned, without the
    interpreter."""
    return (
        f"perfbench/run.py --workload {workload} "
        "--seed 1 --seconds 1 --trace 1"
    )


def count_metrics(result: dict) -> dict[str, int | float]:
    """The ``count`` metrics of one perfbench result (its last output
    line), integral values as ints."""
    if not result.get("correct"):
        raise RunFailed(
            f"not correct ({result.get('failed')} of "
            f"{result.get('attempted')} verdicts failed)"
        )
    return {
        name: int(metric["value"]) if float(metric["value"]).is_integer()
        else metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] == "count"
    }


def run_counts(argv: list[str]) -> dict[str, int | float]:
    """Run ``argv`` under this interpreter from the repository root, echo
    its report, and return the count metrics of its last output line."""
    run = subprocess.run(
        [sys.executable, *argv], cwd=REPO_ROOT,
        stdout=subprocess.PIPE, text=True,
    )
    *report, last = run.stdout.splitlines() or [""]
    print(*report, sep="\n", flush=True)
    if run.returncode != 0:
        raise RunFailed(f"exited {run.returncode}")
    return count_metrics(json.loads(last))


def compare(pinned: dict, measured: dict) -> list[str]:
    """Every difference between two ``{workload: {metric: count}}`` maps."""
    problems = []
    for workload in sorted(pinned.keys() | measured.keys()):
        if workload not in measured:
            problems.append(f"{workload}: in {BASELINE.name} but not run")
            continue
        if workload not in pinned:
            problems.append(f"{workload}: run but not in {BASELINE.name}")
            continue
        want, got = pinned[workload], measured[workload]
        for metric in sorted(want.keys() | got.keys()):
            if metric not in got:
                problems.append(f"{workload}: {metric} is not reported")
            elif metric not in want:
                problems.append(
                    f"{workload}: {metric} is not in {BASELINE.name}"
                )
            elif want[metric] != got[metric]:
                problems.append(
                    f"{workload}: {metric} is {want[metric]} in "
                    f"{BASELINE.name}, {got[metric]} in this run"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--write", action="store_true",
        help=f"rewrite {BASELINE.name} from this run's counts",
    )
    args = parser.parse_args(argv)
    runs = {}
    for workload in workload_names():
        command = workload_command(workload)
        print(f"== {command}", flush=True)
        try:
            runs[workload] = {
                "command": command, "counts": run_counts(command.split()),
            }
        except RunFailed as exc:
            print(f"{workload}: perfbench run {exc}", file=sys.stderr)
            return 1
    if args.write:
        BASELINE.write_text(json.dumps({"workloads": runs}, indent=2) + "\n")
        print(f"wrote {BASELINE.name}")
        return 0
    pinned = json.loads(BASELINE.read_text())["workloads"]
    problems = compare(
        {workload: entry["counts"] for workload, entry in pinned.items()},
        {workload: entry["counts"] for workload, entry in runs.items()},
    )
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        print(
            f"a change that moves a count rewrites {BASELINE.name} "
            "with --write and says why",
            file=sys.stderr,
        )
        return 1
    print(f"every count of {len(runs)} workloads equals {BASELINE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
