"""End-to-end checker benchmark: time to verdict, with a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics on unwrapped code.
``--trace 1`` checks the same pass once untraced and once with every
layer's entry point wrapped (see ``tracer.py``), and reports per-layer
self times and exact counts.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every verdict matched the answer table and
every exact count repeated; it is 2 when the checker's sources are
missing.  ``README.md`` next to this file describes the workloads.
"""

from __future__ import annotations

import time

import refclock  # the script's own directory is first on sys.path

#: Machine-speed samples of this run; the first brackets the start of
#: set-up.
CLOCK = refclock.RefClock()
CLOCK.sample()
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
STATE_DIR = HERE / ".state"

WORKLOAD_NAMES = (
    "fig10-large", "catalog-sweep", "synthesize", "fuzz-differential",
)

#: The seed a run uses when none is given; it orders each pass's work.
DEFAULT_SEED = 1

#: The seed the fuzz-differential corpus is drawn from when none is given.
DEFAULT_FUZZ_SEED = 1

#: Extra set-up samples, each in a fresh interpreter; with the run's own
#: sample the reported ``setup_s`` is a median of three.
SETUP_PROBES = 2

#: No verdict starts after this many seconds into the run, so a badly
#: regressed checker still ends within the harness's time limit.
RUN_GUARD_S = 150.0


def strip_checkfence_env() -> list[str]:
    """Remove every ``CHECKFENCE_*`` variable, so the run takes the default
    path (store off, auto backend, default preprocessing threshold)."""
    names = sorted(name for name in os.environ if name.startswith("CHECKFENCE_"))
    for name in names:
        del os.environ[name]
    return names


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole passes until this much time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--fuzz-seed", type=int, default=DEFAULT_FUZZ_SEED,
                        help="seed of the fuzz-differential corpus")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------- repeat check


def code_fingerprint() -> str:
    """Hash of the checker's and the benchmark's sources: exact counts
    recorded under one fingerprint must repeat under it."""
    digest = hashlib.sha256()
    for root in (SRC / "repro", HERE):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root.parent)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class CountLedger:
    """Exact counts per key, kept across runs of the same code.

    A key seen again (in a later pass, a later run, or the traced pass)
    must reproduce its counts exactly; any difference is reported as
    nondeterminism and fails the run.
    """

    def __init__(self, workload: str) -> None:
        self.path = STATE_DIR / f"counts-{code_fingerprint()}.json"
        try:
            self.data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.data = {}
        self.section = self.data.setdefault(workload, {})
        self.mismatches: list[str] = []

    def record(self, key: str, counts: dict) -> None:
        known = self.section.get(key)
        if known is None:
            self.section[key] = counts
        elif known != counts:
            self.mismatches.append(f"{key}: {known} then {counts}")

    def save(self) -> None:
        STATE_DIR.mkdir(exist_ok=True)
        scratch = self.path.with_suffix(f".{os.getpid()}.tmp")
        scratch.write_text(json.dumps(self.data, sort_keys=True))
        os.replace(scratch, self.path)


# ------------------------------------------------------------- measuring


def run_passes(workload, seed, first_plan, seconds, deadline, ledger):
    """Whole passes until ``seconds`` of verdict time have elapsed.

    Each pass after the first gets a fresh plan, built outside the timed
    region (set-up is measured separately).  Returns the verdicts of each
    pass and the peak resident memory through set-up and the first pass
    (later passes would only add allocator fragmentation, which depends
    on how many fit).
    """
    passes = []
    plan, index = first_plan, 0
    complete = True
    peak_rss_mb = 0.0
    measured = 0.0
    while True:
        start, kernel_before = time.perf_counter(), CLOCK.kernel_s
        result = workload.run(plan, deadline, CLOCK.tick)
        measured += time.perf_counter() - start - (CLOCK.kernel_s - kernel_before)
        passes.append(result.verdicts)
        for key, counts in result.counts.items():
            ledger.record(key, counts)
        complete = complete and result.complete
        if index == 0:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        index += 1
        if measured >= seconds or time.perf_counter() >= deadline:
            break
        plan = workload.build(seed, index)
    CLOCK.tick()  # brackets the last verdict
    return passes, complete, peak_rss_mb


def own_setup_seconds() -> tuple[float, float]:
    """Raw and reference seconds from process start to the end of set-up."""
    end = time.perf_counter()
    CLOCK.sample()
    return end - _PROCESS_START, CLOCK.reference_seconds(_PROCESS_START, end)


def setup_samples(args, own: tuple[float, float]) -> list[tuple[float, float]]:
    """The run's own set-up time plus that of fresh-interpreter probes."""
    samples = [own]
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--fuzz-seed", str(args.fuzz_seed), "--setup-probe",
    ]
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            command, capture_output=True, text=True, timeout=60, check=True,
        )
        raw, reference = probe.stdout.split()[-2:]
        samples.append((float(raw), float(reference)))
    return samples


def quantile(values: list[float], fraction: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def latency_metrics(verdicts, seconds_of) -> tuple[float, float, int]:
    """p50 and p90 of verdict times.  A row that repeats across passes
    counts once, at its median time."""
    by_key: dict[str, list[float]] = {}
    for verdict in verdicts:
        if not verdict.problem:
            by_key.setdefault(verdict.key, []).append(seconds_of(verdict))
    times = [statistics.median(samples) for samples in by_key.values()]
    if not times:
        return 0.0, 0.0, 0
    return quantile(times, 0.5), quantile(times, 0.9), len(times)


def describe_config() -> str:
    """The settings a session resolves from the benchmark's options, so a
    PR that changes a default shows up in the output."""
    from repro.core.session import CheckSession
    from repro.datatypes.registry import get_implementation
    from repro.sat.backend import default_backend_spec
    import workloads

    options = workloads.check_options()
    session = CheckSession(get_implementation("msn"), options)
    return (
        f"backend_spec={default_backend_spec()} "
        f"backend={session.backend_factory().name} "
        f"simplify={session.simplify} share_encode={session.share_encode} "
        f"store={session.store is not None} "
        f"dense_order={session.dense_order} jobs=1 "
        f"check_timeout_s={options.timeout:g}"
    )


def end_to_end(args, workload, ledger, deadline):
    """The untraced run: set-up, timed passes, end-to-end metrics.

    Times are reported in seconds of the reference machine (see
    ``refclock.py``); the raw wall-clock figures are printed beside them.
    """
    plan = workload.build(args.seed, 0)
    own_setup = own_setup_seconds()
    passes, complete, peak_rss_mb = run_passes(
        workload, args.seed, plan, args.seconds, deadline, ledger
    )
    setup = setup_samples(args, own_setup)
    verdicts = [verdict for pass_verdicts in passes for verdict in pass_verdicts]

    def reference(verdict):
        return CLOCK.reference_seconds(verdict.start, verdict.end)

    def raw(verdict):
        return verdict.seconds

    figures = {}
    for label, seconds_of, setup_index in (
        ("raw", raw, 0), ("reference", reference, 1),
    ):
        rates = []
        for pass_verdicts in passes:
            total = sum(map(seconds_of, pass_verdicts))
            rates.append(len(pass_verdicts) / total if total else 0.0)
        p50, p90, samples = latency_metrics(verdicts, seconds_of)
        figures[label] = {
            "setup_s": (statistics.median(s[setup_index] for s in setup), "s"),
            "verdicts_per_s": (statistics.median(rates), "1/s"),
            "verdict_p50_s": (p50, "s"),
            "verdict_p90_s": (p90, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    slowness = CLOCK.slowness
    print(
        f"measured {len(verdicts)} verdicts ({workload.unit}) in "
        f"{len(passes)} pass(es); latency percentiles over {samples} "
        f"distinct verdicts; machine slowness {min(slowness):.2f}-"
        f"{max(slowness):.2f} (median {statistics.median(slowness):.2f}) "
        f"over {len(slowness)} samples",
        flush=True,
    )
    for name, (value, unit) in figures["raw"].items():
        print(f"raw {name} {value:.6f} {unit}", flush=True)
    return verdicts, figures["reference"], complete


def traced(args, workload, ledger, deadline):
    """The traced run: the same pass once untraced and once traced, each
    on a fresh plan.  Pass order biases the comparison (the first pass of
    a process often ran slower), so the order alternates with the seed's
    parity and ``trace.overhead_s`` evens out over a set of seeds.  No
    machine-speed samples are taken, so ``other_s`` stays the benchmark's
    own overhead."""
    import tracer as tracing

    walls, verdicts, complete = {}, [], True
    order = (True, False) if args.seed % 2 else (False, True)
    for traced_pass in order:
        trace = tracing.Tracer()
        if traced_pass:
            trace.install()
        try:
            start = time.perf_counter()
            plan = workload.build(args.seed, 0)
            result = workload.run(plan, deadline, lambda: None)
            wall = time.perf_counter() - start
        finally:
            trace.uninstall()
        walls[traced_pass] = wall
        verdicts.extend(result.verdicts)
        complete = complete and result.complete
        for key, counts in result.counts.items():
            ledger.record(key, counts)
        if traced_pass:
            traced_verdicts = len(result.verdicts)
            layer = tracing.layer_metrics(
                trace, wall, plan.cache_stats(), traced_verdicts
            )
            spans = trace.spans
    write_spans(args, spans)
    exact = {name: layer[name] for name in (
        "encoding.calls", "encoding.clauses", "solver.calls",
        "solver.conflicts", "solver.propagations", "simplify.engaged",
        "synthesize.solves",
    )}
    exact["verdicts"] = traced_verdicts
    # Every seed traces the same checks, so the totals repeat across seeds.
    ledger.record("traced pass", exact)
    layer["verdicts"] = float(traced_verdicts)
    layer["trace.wall_s"] = walls[True]
    layer["trace.untraced_wall_s"] = walls[False]
    layer["trace.overhead_s"] = walls[True] - walls[False]
    layer["repeat.mismatches"] = float(len(ledger.mismatches))
    self_sum = sum(layer[m] for m in tracing.SELF_TIME_METRICS.values())
    print(
        f"traced wall {walls[True]:.3f}s = layer self times {self_sum:.3f}s "
        f"+ other_s {layer['other_s']:.3f}s; untraced wall {walls[False]:.3f}s",
        flush=True,
    )
    metrics = {name: (value, unit_of(name)) for name, value in layer.items()}
    return verdicts, metrics, complete


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def write_spans(args, spans) -> None:
    """Write the traced pass's spans once, at the end of the run."""
    STATE_DIR.mkdir(exist_ok=True)
    path = STATE_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent"], "spans": spans}
    ))


def main(argv=None) -> int:
    args = parse_args(argv)
    stripped = strip_checkfence_env()
    if not (SRC / "repro").is_dir():
        print(f"error: checker sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    import workloads

    workload = workloads.get_workload(args.workload, args.fuzz_seed)

    if args.setup_probe:
        workload.build(args.seed, 0)
        print(*own_setup_seconds())
        return 0

    print(
        f"workload {args.workload} seed={args.seed} "
        f"fuzz_seed={args.fuzz_seed} trace={args.trace} "
        f"seconds={args.seconds:g}; stripped env: {', '.join(stripped) or '-'}",
        flush=True,
    )
    deadline = _PROCESS_START + RUN_GUARD_S
    ledger = CountLedger(args.workload)
    measure = traced if args.trace else end_to_end
    verdicts, metrics, complete = measure(args, workload, ledger, deadline)
    print(f"config: {describe_config()}", flush=True)
    ledger.save()

    failed = [verdict for verdict in verdicts if verdict.problem]
    attempted = max(len(verdicts), 1)
    for verdict in failed[:20]:
        print(f"FAILED {verdict.key}: {verdict.problem}", flush=True)
    for mismatch in ledger.mismatches[:20]:
        print(f"NONDETERMINISM {mismatch}", flush=True)
    if not complete:
        print(f"INCOMPLETE: the {RUN_GUARD_S:g}s run guard stopped the run",
              flush=True)
    print(f"failed_ratio {len(failed) / attempted:.6f} ratio", flush=True)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6f} {unit}", flush=True)
    correct = bool(verdicts) and not failed and not ledger.mismatches and complete
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
