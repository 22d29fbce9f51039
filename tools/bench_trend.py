#!/usr/bin/env python3
"""Run the benchmark suite and append one consolidated trend snapshot.

Each invocation runs a selection of ``benchmarks/bench_*.py`` modules under
pytest-benchmark, gathers every per-test record (wall-clock seconds plus the
embedded ``extra_info`` blocks: solver counters, memory-order encoding
counters, matrix scaling records), and writes a single consolidated
``BENCH_<n>.json`` at the repository root — ``<n>`` is one past the highest
existing snapshot, so the repo accumulates a perf trajectory that future
PRs can diff against (CI uploads the file as an artifact).

``--compare`` mode diffs the two newest snapshots instead of running
anything: a per-benchmark wall-clock delta table, exiting non-zero when
any benchmark present in both snapshots regressed by more than 25%
(relative) *and* 0.1s (absolute — so micro-benchmarks are not failed on
scheduler noise), plus a report-only diff of the solver-stat counters
(propagations, conflicts, preprocess_seconds) — deterministic numbers
that expose kernel regressions even when 1-core CI timing is too noisy
to gate on.  CI runs the comparison after every snapshot so the perf
trajectory is a gate, not just an artifact.

Usage::

    python tools/bench_trend.py                  # the default (fast) set
    python tools/bench_trend.py --all            # every bench_*.py module
    python tools/bench_trend.py --benchmarks fig2_litmus,encoding_size
    python tools/bench_trend.py --dry-run        # list what would run
    python tools/bench_trend.py --compare        # newest vs previous
    python tools/bench_trend.py --compare --against BENCH_1.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = REPO_ROOT / "benchmarks"

#: Modules run by default: the paper's headline figures plus the encoding
#: size gate — each finishes in seconds-to-a-couple-minutes.  The slower
#: experiment sweeps (fig8 catalog, sec4x, matrix scaling) are opt-in via
#: --all or --benchmarks.
DEFAULT_SET = [
    "fig2_litmus",
    "fig10_inclusion",
    "encoding_size",
    "fuzz_throughput",
    "simplify",
    "rfcheck",
]

#: --compare regression gate: fail when a benchmark got more than 25%
#: slower AND the absolute growth exceeds 0.1s (micro-modules jitter).
REGRESSION_RELATIVE = 0.25
REGRESSION_ABSOLUTE = 0.1


def available_benchmarks() -> list[str]:
    return sorted(
        path.stem[len("bench_"):]
        for path in BENCH_DIR.glob("bench_*.py")
    )


def snapshot_paths() -> list[Path]:
    """Existing BENCH_<n>.json snapshots, oldest first."""
    numbered = []
    for path in REPO_ROOT.glob("BENCH_*.json"):
        match = re.fullmatch(r"BENCH_(\d+)\.json", path.name)
        if match:
            numbered.append((int(match.group(1)), path))
    return [path for _, path in sorted(numbered)]


def next_snapshot_path() -> Path:
    paths = snapshot_paths()
    if not paths:
        return REPO_ROOT / "BENCH_1.json"
    highest = int(re.fullmatch(r"BENCH_(\d+)\.json", paths[-1].name).group(1))
    return REPO_ROOT / f"BENCH_{highest + 1}.json"


def _benchmark_seconds(snapshot: dict) -> dict[str, float]:
    """Per-benchmark wall-clock totals of one snapshot (only benchmarks
    that ran to completion contribute)."""
    seconds = {}
    for record in snapshot.get("benchmarks", []):
        if record.get("status") == "ok" and "total_seconds" in record:
            seconds[record["benchmark"]] = record["total_seconds"]
    return seconds


#: Solver-stat counters diffed by --compare (report-only, no gate): they
#: are deterministic per build, so kernel/encoding regressions show up in
#: them even when wall-clock numbers drown in 1-core CI scheduler noise.
COUNTER_KEYS = ("propagations", "conflicts", "preprocess_seconds")


def _benchmark_counters(snapshot: dict) -> dict[str, dict[str, float]]:
    """Per-benchmark solver-counter totals, summed over the benchmark's
    tests.  Counters live in each test's ``extra_info.solver`` block
    (``preprocess_seconds`` also in ``extra_info.simplify``); benchmarks
    recording neither contribute nothing."""
    totals: dict[str, dict[str, float]] = {}
    for record in snapshot.get("benchmarks", []):
        if record.get("status") != "ok":
            continue
        sums: dict[str, float] = {}
        for test in record.get("tests", []):
            extra = test.get("extra_info", {})
            for block_name in ("solver", "simplify"):
                block = extra.get(block_name)
                if not isinstance(block, dict):
                    continue
                for key in COUNTER_KEYS:
                    value = block.get(key)
                    if isinstance(value, (int, float)):
                        sums[key] = sums.get(key, 0) + value
        if sums:
            totals[record["benchmark"]] = sums
    return totals


def _print_counter_diff(new: dict, old: dict) -> None:
    """The report-only counter table of --compare."""
    new_counters = _benchmark_counters(new)
    old_counters = _benchmark_counters(old)
    shared = sorted(set(new_counters) & set(old_counters))
    rows = []
    for name in shared:
        for key in COUNTER_KEYS:
            old_value = old_counters[name].get(key)
            new_value = new_counters[name].get(key)
            if old_value is None or new_value is None:
                continue
            rows.append((f"{name}.{key}", old_value, new_value))
    if not rows:
        print("bench_trend: no shared solver counters to diff")
        return
    width = max(len(label) for label, _, _ in rows)
    print("solver counters (report-only, not gated):")
    print(f"{'counter':<{width}}  {'old':>12}  {'new':>12}  {'delta':>8}")
    for label, old_value, new_value in rows:
        if old_value > 0:
            relative = f"{(new_value - old_value) / old_value:+7.0%}"
        else:
            relative = "-" if new_value == old_value else "new"
        if label.endswith("seconds"):
            old_text, new_text = f"{old_value:.2f}", f"{new_value:.2f}"
        else:
            old_text, new_text = f"{old_value:.0f}", f"{new_value:.0f}"
        print(f"{label:<{width}}  {old_text:>12}  {new_text:>12}  "
              f"{relative:>8}")


def compare_snapshots(new_path: Path, old_path: Path) -> int:
    """Print a per-benchmark wall-clock delta table plus a report-only
    solver-counter diff; return a non-zero exit code when any shared
    benchmark regressed past the wall-clock gate."""
    new = json.loads(new_path.read_text(encoding="utf-8"))
    old = json.loads(old_path.read_text(encoding="utf-8"))
    new_seconds = _benchmark_seconds(new)
    old_seconds = _benchmark_seconds(old)
    names = sorted(set(new_seconds) | set(old_seconds))
    width = max((len(name) for name in names), default=9)
    print(f"bench_trend: {new_path.name} vs {old_path.name}")
    print(f"{'benchmark':<{width}}  {'old[s]':>8}  {'new[s]':>8}  "
          f"{'delta':>8}  status")
    regressions = []
    for name in names:
        old_value = old_seconds.get(name)
        new_value = new_seconds.get(name)
        if old_value is None:
            print(f"{name:<{width}}  {'-':>8}  {new_value:>8.2f}  "
                  f"{'-':>8}  new (no baseline)")
            continue
        if new_value is None:
            print(f"{name:<{width}}  {old_value:>8.2f}  {'-':>8}  "
                  f"{'-':>8}  missing from newest")
            continue
        delta = new_value - old_value
        relative = delta / old_value if old_value > 0 else 0.0
        regressed = (
            relative > REGRESSION_RELATIVE and delta > REGRESSION_ABSOLUTE
        )
        status = "REGRESSION" if regressed else "ok"
        if regressed:
            regressions.append(name)
        print(f"{name:<{width}}  {old_value:>8.2f}  {new_value:>8.2f}  "
              f"{relative:>+7.0%}  {status}")
    _print_counter_diff(new, old)
    if regressions:
        print(
            f"bench_trend: {len(regressions)} wall-clock regression(s) "
            f"past {REGRESSION_RELATIVE:.0%}/{REGRESSION_ABSOLUTE}s: "
            + ", ".join(regressions)
        )
        return 1
    print("bench_trend: no wall-clock regressions past the gate")
    return 0


def run_benchmark(name: str, timeout: float | None) -> dict:
    """Run one benchmark module; returns its consolidated record."""
    module = BENCH_DIR / f"bench_{name}.py"
    with tempfile.NamedTemporaryFile(
        suffix=".json", prefix=f"bench-{name}-", delete=False
    ) as handle:
        json_path = Path(handle.name)
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    command = [
        sys.executable, "-m", "pytest", str(module), "-q",
        f"--benchmark-json={json_path}",
    ]
    try:
        completed = subprocess.run(
            command, cwd=REPO_ROOT, env=env, timeout=timeout,
            capture_output=True, text=True,
        )
        status = "ok" if completed.returncode == 0 else "failed"
        tail = "\n".join(completed.stdout.splitlines()[-5:])
    except subprocess.TimeoutExpired:
        status, tail = "timeout", ""
    record: dict = {"benchmark": name, "status": status, "pytest_tail": tail}
    try:
        payload = json.loads(json_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        payload = None
    finally:
        try:
            json_path.unlink()
        except OSError:
            pass
    if payload is not None:
        tests = []
        total = 0.0
        for bench in payload.get("benchmarks", []):
            seconds = bench.get("stats", {}).get("mean", 0.0)
            total += seconds
            tests.append({
                "name": bench.get("name"),
                "seconds": seconds,
                "extra_info": bench.get("extra_info", {}),
            })
        record["tests"] = tests
        record["total_seconds"] = total
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="run benchmarks and write a consolidated BENCH_<n>.json "
        "trend snapshot at the repo root"
    )
    parser.add_argument(
        "--benchmarks", default=None, metavar="NAMES",
        help="comma-separated module keys (bench_<key>.py); "
        f"default: {','.join(DEFAULT_SET)}",
    )
    parser.add_argument("--all", action="store_true",
                        help="run every bench_*.py module")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-module timeout in seconds (default: 600)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the snapshot here instead of the next "
                        "BENCH_<n>.json")
    parser.add_argument("--dry-run", action="store_true",
                        help="list the modules that would run and exit")
    parser.add_argument(
        "--compare", action="store_true",
        help="do not run anything: diff the newest snapshot against the "
        "previous one (or --against) and exit non-zero on wall-clock "
        "regressions past the gate",
    )
    parser.add_argument(
        "--snapshot", default=None, metavar="FILE",
        help="with --compare: the newer snapshot (default: newest "
        "BENCH_<n>.json)",
    )
    parser.add_argument(
        "--against", default=None, metavar="FILE",
        help="with --compare: the baseline snapshot (default: the "
        "second-newest BENCH_<n>.json)",
    )
    args = parser.parse_args(argv)

    if args.compare:
        paths = snapshot_paths()
        new_path = Path(args.snapshot) if args.snapshot else (
            paths[-1] if paths else None
        )
        old_path = Path(args.against) if args.against else (
            paths[-2] if len(paths) >= 2 else None
        )
        if new_path is None or old_path is None:
            parser.error(
                "--compare needs two snapshots (found "
                f"{len(paths)} BENCH_<n>.json at the repo root)"
            )
        return compare_snapshots(new_path, old_path)

    known = available_benchmarks()
    if args.all:
        selection = known
    elif args.benchmarks:
        selection = [n.strip() for n in args.benchmarks.split(",") if n.strip()]
        unknown = [n for n in selection if n not in known]
        if unknown:
            parser.error(
                f"unknown benchmarks {', '.join(unknown)} "
                f"(known: {', '.join(known)})"
            )
    else:
        selection = [n for n in DEFAULT_SET if n in known]

    if args.dry_run:
        for name in selection:
            print(f"bench_{name}.py")
        return 0

    records = []
    for name in selection:
        print(f"bench_trend: running bench_{name}.py ...", flush=True)
        record = run_benchmark(name, timeout=args.timeout)
        wall = record.get("total_seconds")
        suffix = f" ({wall:.2f}s measured)" if wall is not None else ""
        print(f"bench_trend: bench_{name}.py {record['status']}{suffix}",
              flush=True)
        records.append(record)

    snapshot = {
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "environment": {
            key: os.environ.get(key, "")
            for key in ("CHECKFENCE_SOLVER", "CHECKFENCE_SIMPLIFY",
                        "CHECKFENCE_STORE", "CHECKFENCE_JOBS",
                        "CHECKFENCE_LARGE")
        },
        "benchmarks": records,
    }
    out_path = Path(args.out) if args.out else next_snapshot_path()
    out_path.write_text(
        json.dumps(snapshot, indent=2, default=str) + "\n", encoding="utf-8"
    )
    print(f"bench_trend: wrote {out_path}")
    return 0 if all(r["status"] == "ok" for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
