"""Parallel check matrix: multiprocess sharding across (test x model x impl).

CheckFence's workload is embarrassingly parallel: every (bounded test,
memory model, implementation) cell is an independent SAT instance, and the
paper's experiments (Fig. 8 catalog runs, Table 1, the Fig. 2 litmus matrix)
are exactly such matrices.  This module enumerates the cells, groups them
into *shards*, and runs the shards either serially or across a
``multiprocessing`` worker pool:

* a :class:`MatrixCell` names one check — a catalog cell
  (implementation, Fig. 8 test, memory model) or a litmus cell
  (litmus test, memory model);
* :func:`shard_cells` batches cells so that work is reused *inside* a
  shard: the default ``shard_by="test"`` groups by compiled-test key
  (implementation, test), so one :class:`~repro.core.session.CheckSession`
  compiles the test and mines its specification once and then sweeps the
  models;
* :func:`run_matrix` is the orchestrator.  With ``jobs=1`` it runs the
  shards in order in-process (the deterministic serial path).  With
  ``jobs>1`` it starts worker processes that pull shards from a task
  queue — each worker keeps warm ``CheckSession`` objects per
  implementation — and streams :class:`CellResult` messages back through a
  result queue, so progress is reported as cells finish.  Results are
  merged back into the original cell order, so serial and parallel runs
  produce the same sequence of verdicts.

Fault tolerance (the robustness layer):

* cells run under the per-cell resource budget of
  :mod:`repro.core.limits` (``options.timeout`` /
  ``options.memory_limit_mb``), degrading to first-class ``TIMEOUT`` /
  ``OOM`` verdicts instead of hanging a worker;
* a crashed (or hung) worker's unfinished cells are *re-queued* to a
  replacement worker with capped retries (:data:`MATRIX_RETRIES`) and a
  small backoff; cells still unfinished after the attempt cap are
  quarantined as explicit ``CRASHED`` verdicts;
* ``journal=`` writes one JSON line per completed cell as it finishes,
  and ``resume=True`` reads the journal back, records the finished
  cells verdict-identically, and reruns only the rest;
* pool teardown escalates terminate → kill, so a worker stuck in a
  SIGTERM-ignoring state (hung solver, masked signals) is never leaked.

Fault *injection* for all of the above lives in
:mod:`repro.core.faults` (``CHECKFENCE_FAULT=worker-crash:<key>,...``).

The CLI surface is ``checkfence matrix`` (``--jobs``, ``--shard-by``,
``--solver``, ``--json``, ``--timeout``, ``--journal``/``--resume``);
``checkfence litmus`` and :func:`repro.harness.runner.catalog_matrix` are
built on top of this module.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import queue as queue_module
import signal
import time
import traceback
from dataclasses import dataclass, field, replace

from repro.core import faults, limits
from repro.core.results import CheckResult
from repro.core.session import CheckSession
from repro.datatypes.registry import category_of, get_implementation
from repro.harness.catalog import get_test, test_names
from repro.memorymodel.base import get_model
from repro.sat.backend import make_backend_factory

#: Kinds of matrix cells.
CATALOG_KIND = "catalog"
LITMUS_KIND = "litmus"
#: Differential-fuzzing cells: ``test`` is a replayable fuzz program spec
#: (see :mod:`repro.fuzz.generator`) and the verdict is "oracle and SAT
#: encoding agree on the outcome set".
FUZZ_KIND = "fuzz"
#: Engine-parameterized differential cells: like :data:`FUZZ_KIND`, but the
#: ``implementation`` column carries a comma-separated engine selection
#: (``enumerator``/``rfcheck``/``sat``) instead of the constant ``"fuzz"``,
#: so a non-default selection travels to pool workers inside the cell.
ENGINES_KIND = "engines"

#: Valid ``shard_by`` axes.
SHARD_AXES = ("test", "model", "impl")

#: Extra attempts granted to the unfinished cells of a crashed or hung
#: worker before they are quarantined as ``CRASHED`` (so the total
#: attempt cap is retries + 1).
MATRIX_RETRIES = 2
#: Seconds slept (scaled by the attempt number) before re-queuing a
#: crashed worker's shard.
MATRIX_BACKOFF = 0.05
#: Parent-side hung-worker watchdog: a worker with an in-flight shard
#: that has produced no message for this many seconds is killed and its
#: shard re-queued like a crash.  Unset/empty disables the watchdog.
WORKER_TIMEOUT_ENV = "CHECKFENCE_MATRIX_WORKER_TIMEOUT"


def matrix_worker_timeout() -> float | None:
    value = os.environ.get(WORKER_TIMEOUT_ENV, "").strip()
    if not value:
        return None
    try:
        parsed = float(value)
    except ValueError as exc:
        raise ValueError(
            f"{WORKER_TIMEOUT_ENV} must be a number, got {value!r}"
        ) from exc
    return parsed if parsed > 0 else None


def default_jobs() -> int:
    """Worker count used when ``jobs`` is not given.

    Reads the ``CHECKFENCE_JOBS`` environment variable (so CI can run the
    whole suite through the pool with ``CHECKFENCE_JOBS=2``); defaults to 1
    (the deterministic serial path).
    """
    value = os.environ.get("CHECKFENCE_JOBS", "").strip()
    if not value:
        return 1
    try:
        return max(1, int(value))
    except ValueError as exc:
        raise ValueError(
            f"CHECKFENCE_JOBS must be an integer, got {value!r}"
        ) from exc


# --------------------------------------------------------------------- cells


@dataclass(frozen=True)
class MatrixCell:
    """One independent check: an (implementation, test, model) coordinate.

    ``kind`` selects the pipeline: :data:`CATALOG_KIND` cells run the full
    Fig. 1 check of a data type implementation against a Fig. 8 test;
    :data:`LITMUS_KIND` cells ask whether a litmus observation is reachable
    (``implementation`` is the constant ``"litmus"`` and ``test`` names the
    litmus shape); :data:`FUZZ_KIND` cells differentially compare the
    operational oracle against the SAT encoding on a generated program
    (``implementation`` is ``"fuzz"`` and ``test`` is the replayable spec).
    """

    implementation: str
    test: str
    model: str
    kind: str = CATALOG_KIND

    @property
    def key(self) -> str:
        """Human-readable (and fault-injection) identity of the cell."""
        return f"{self.implementation}/{self.test}@{self.model}"


def catalog_cells(
    implementations,
    models=("relaxed",),
    tests=None,
    size: str = "small",
) -> list[MatrixCell]:
    """Enumerate catalog cells: each implementation x its Fig. 8 tests x
    each memory model.

    ``tests=None`` selects the catalog tests of each implementation's
    category filtered by ``size`` ('small', 'medium', 'large', 'all');
    an explicit test list is used verbatim for every implementation (all
    implementations must then share one category, or :func:`run_matrix`
    reports per-cell errors for the mismatches).
    """
    model_names = [get_model(m).name for m in models]
    cells = []
    for implementation in implementations:
        names = tests
        if names is None:
            names = test_names(category_of(implementation), size)
        for test in names:
            for model in model_names:
                cells.append(MatrixCell(implementation, test, model))
    return cells


def litmus_cells(models) -> list[MatrixCell]:
    """Enumerate litmus cells: each litmus shape with an observation of
    interest x each memory model."""
    from repro.litmus.catalog import available_litmus_tests

    model_names = [get_model(m).name for m in models]
    cells = []
    for name, litmus in available_litmus_tests().items():
        if not litmus.observation:
            continue
        for model in model_names:
            cells.append(MatrixCell("litmus", name, model, kind=LITMUS_KIND))
    return cells


# ------------------------------------------------------------------- results


@dataclass
class CellResult:
    """Outcome of one matrix cell.

    Exactly one of the verdict fields is meaningful: ``passed`` for catalog
    cells, ``allowed`` for litmus cells; both are ``None`` when ``error``
    or ``degraded`` is set.  ``degraded`` carries a first-class
    resource/fault verdict (``TIMEOUT``, ``OOM``, ``CRASHED``) — distinct
    from both FAIL (the check completed and found a bug) and ERROR (the
    harness mis-ran): a degraded cell produced *no* verdict and must never
    be conflated with either.  ``result`` carries the full
    :class:`CheckResult` for catalog cells; workers blank its
    ``specification`` before queue transport (the mined observation set is
    the heavy part and would be pickled once per model otherwise — on the
    serial path it survives intact).  ``stats`` is the JSON-safe view for
    reporting (for catalog cells,
    :meth:`repro.core.results.CheckStatistics.as_dict`).
    """

    cell: MatrixCell
    passed: bool | None = None
    allowed: bool | None = None
    seconds: float = 0.0
    worker: int = -1
    error: str = ""
    degraded: str = ""
    counterexample: str = ""
    notes: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    result: CheckResult | None = None

    @property
    def verdict(self) -> str:
        if self.degraded:
            return self.degraded
        if self.error:
            return "ERROR"
        if self.cell.kind == LITMUS_KIND:
            return "allowed" if self.allowed else "forbidden"
        if self.cell.kind in (FUZZ_KIND, ENGINES_KIND):
            if self.notes:
                return "INCONCLUSIVE"
            return "agree" if self.passed else "DIVERGE"
        return "PASS" if self.passed else "FAIL"

    @property
    def ok(self) -> bool:
        """True unless the cell errored, degraded (TIMEOUT/OOM/CRASHED),
        a catalog check failed, or a fuzz cell found an oracle/SAT
        divergence."""
        if self.error or self.degraded:
            return False
        if self.cell.kind == LITMUS_KIND:
            return True
        return bool(self.passed)

    def as_dict(self) -> dict:
        """JSON-safe summary (drops the full ``result`` object)."""
        return {
            "implementation": self.cell.implementation,
            "test": self.cell.test,
            "model": self.cell.model,
            "kind": self.cell.kind,
            "verdict": self.verdict,
            "seconds": self.seconds,
            "worker": self.worker,
            "error": self.error,
            "degraded": self.degraded,
            "counterexample": self.counterexample,
            "notes": list(self.notes),
            "stats": dict(self.stats),
        }


@dataclass
class MatrixResult:
    """Merged outcome of one matrix run, in original cell order."""

    results: list[CellResult]
    jobs: int
    shard_by: str
    shard_count: int
    elapsed_seconds: float
    shard_stats: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def errors(self) -> list[CellResult]:
        return [r for r in self.results if r.error and not r.degraded]

    @property
    def degraded(self) -> list[CellResult]:
        """Cells that hit a resource budget or exhausted their crash
        retries (verdicts TIMEOUT / OOM / CRASHED)."""
        return [r for r in self.results if r.degraded]

    @property
    def resumed(self) -> list[CellResult]:
        """Cells restored from a journal instead of re-run."""
        return [r for r in self.results if r.stats.get("resumed")]

    def cache_totals(self) -> dict:
        """Aggregate CheckSession cache counters over all shards (how often
        each stage ran vs was reused)."""
        totals: dict[str, int] = {}
        for stats in self.shard_stats:
            for key, value in stats.get("cache", {}).items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def verdict_counts(self) -> dict[str, int]:
        """How many cells landed on each verdict.  INCONCLUSIVE cells are
        their own bucket — they compared nothing and must never read as
        silent agreement in aggregate reporting; likewise the degraded
        verdicts (TIMEOUT/OOM/CRASHED) never fold into PASS or FAIL."""
        counts: dict[str, int] = {}
        for result in self.results:
            verdict = result.verdict
            counts[verdict] = counts.get(verdict, 0) + 1
        return counts

    def as_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "shard_by": self.shard_by,
            "shards": self.shard_count,
            "elapsed_seconds": self.elapsed_seconds,
            "ok": self.ok,
            "verdicts": self.verdict_counts(),
            "cache": self.cache_totals(),
            "cells": [r.as_dict() for r in self.results],
            "shard_stats": list(self.shard_stats),
        }

    def format_table(self) -> str:
        from repro.harness.reporting import format_seconds, format_table

        rows = []
        for r in self.results:
            rows.append((
                r.cell.implementation,
                r.cell.test,
                r.cell.model,
                r.verdict,
                r.stats.get("backend", ""),
                format_seconds(r.seconds),
            ))
        return format_table(
            ["implementation", "test", "model", "verdict", "backend", "time"],
            rows,
        )

    def summary(self) -> str:
        cache = self.cache_totals()
        reused = cache.get("compile_hits", 0) + cache.get("mine_hits", 0)
        line = (
            f"{len(self.results)} cells in {self.shard_count} shards "
            f"(shard-by {self.shard_by}), jobs={self.jobs}, "
            f"{self.elapsed_seconds:.2f}s elapsed; "
            f"compiled {cache.get('compile', 0)}x, "
            f"spec mined {cache.get('mine', 0)}x, "
            f"{reused} cache hits"
        )
        resumed = len(self.resumed)
        if resumed:
            line += f"; {resumed} resumed from journal"
        degraded = self.degraded
        if degraded:
            counts = {}
            for result in degraded:
                counts[result.degraded] = counts.get(result.degraded, 0) + 1
            line += "; " + ", ".join(
                f"{count} {verdict}" for verdict, count in sorted(counts.items())
            )
        if self.errors:
            line += f"; {len(self.errors)} ERRORS"
        return line


# ------------------------------------------------------------------ sharding


@dataclass
class _Shard:
    """A batch of cells that share cacheable work, plus their original
    positions (so merged results keep the caller's cell order).
    ``attempt`` counts executions of this shard (1 = first run); the
    crash-retry path re-queues a replacement shard with ``attempt + 1``
    holding only the unfinished cells."""

    index: int
    key: tuple
    cells: list[tuple[int, MatrixCell]]
    attempt: int = 1


def _shard_key(cell: MatrixCell, shard_by: str) -> tuple:
    if shard_by == "test":
        # The compiled-test key: one CheckSession compiles (impl, test)
        # once and mines its specification once for all models.
        return (cell.kind, cell.implementation, cell.test)
    if shard_by == "impl":
        return (cell.kind, cell.implementation)
    if shard_by == "model":
        return (cell.kind, cell.model)
    raise ValueError(
        f"unknown shard_by {shard_by!r} (expected one of {SHARD_AXES})"
    )


def shard_cells(cells, shard_by: str = "test") -> list[_Shard]:
    """Group cells into shards of reusable work, preserving first-seen
    order of both shards and cells."""
    grouped: dict[tuple, list[tuple[int, MatrixCell]]] = {}
    for position, cell in enumerate(cells):
        grouped.setdefault(_shard_key(cell, shard_by), []).append(
            (position, cell)
        )
    return [
        _Shard(index=index, key=key, cells=members)
        for index, (key, members) in enumerate(grouped.items())
    ]


# ------------------------------------------------------------ cell execution


def _run_cell(cell: MatrixCell, sessions: dict, options) -> CellResult:
    """Check one cell, reusing a warm session when one exists.

    Never raises: failures (unknown names, backend errors, ...) become
    ``error`` results and resource-budget breaches become ``degraded``
    results, so one bad cell cannot take down a shard.  The cell runs
    under its own deadline scope built from the options (plus the
    ``cell-timeout`` fault injection), which nested layers — the session,
    the solver backends, the oracle loops — poll.
    """
    started = time.perf_counter()
    deadline = limits.deadline_from_options(options)
    if cell.key in faults.timeout_cells():
        # Injected expiry: the cell sees an already-expired deadline, so
        # the TIMEOUT path runs without waiting for real wall-clock.
        deadline = limits.Deadline(timeout_seconds=0.0)
    try:
        with limits.deadline_scope(deadline):
            # An already-expired budget (tiny --timeout, injected
            # cell-timeout fault) fails fast instead of waiting for the
            # first in-loop poll, which a small cell may never reach.
            limits.check_deadline()
            return _run_cell_inner(cell, sessions, options, started)
    except limits.LimitExceeded as exc:
        return CellResult(
            cell=cell,
            seconds=time.perf_counter() - started,
            degraded=exc.kind,
            notes=[str(exc)],
        )
    except Exception as exc:
        detail = traceback.format_exc(limit=3)
        return CellResult(
            cell=cell,
            seconds=time.perf_counter() - started,
            error=f"{type(exc).__name__}: {exc}\n{detail}",
        )


def _run_cell_inner(
    cell: MatrixCell, sessions: dict, options, started: float
) -> CellResult:
    if cell.kind in (FUZZ_KIND, ENGINES_KIND):
        from repro.fuzz.harness import run_fuzz_cell

        return run_fuzz_cell(cell, options)
    if cell.kind == LITMUS_KIND:
        from repro.litmus.catalog import (
            available_litmus_tests,
            observation_outcome,
        )

        litmus = available_litmus_tests()[cell.test]
        outcome = observation_outcome(
            litmus, cell.model,
            backend_factory=make_backend_factory(options.solver_backend),
        )
        return CellResult(
            cell=cell,
            allowed=outcome.allowed,
            seconds=time.perf_counter() - started,
            stats={"backend": outcome.backend, "order": outcome.order},
        )
    session = sessions.get(cell.implementation)
    if session is None:
        session = CheckSession(
            get_implementation(cell.implementation), options
        )
        sessions[cell.implementation] = session
    test = get_test(category_of(cell.implementation), cell.test)
    result = session.check(test, cell.model)
    if result.degraded:
        # The session already folded the budget breach into a degraded
        # CheckResult (and skipped the store); surface it as a
        # first-class cell verdict.
        return CellResult(
            cell=cell,
            seconds=time.perf_counter() - started,
            degraded=result.degraded,
            notes=list(result.notes),
            stats=result.stats.as_dict(),
        )
    return CellResult(
        cell=cell,
        passed=result.passed,
        seconds=time.perf_counter() - started,
        counterexample=(
            result.counterexample.format()
            if result.counterexample is not None
            else ""
        ),
        notes=list(result.notes),
        stats=result.stats.as_dict(),
        result=result,
    )


def _cache_snapshot(sessions: dict) -> dict:
    return {name: dict(s.cache_stats) for name, s in sessions.items()}


def _cache_delta(sessions: dict, before: dict) -> dict:
    """How often each cacheable stage ran during one shard."""
    delta: dict[str, int] = {}
    for name, session in sessions.items():
        baseline = before.get(name, {})
        for key, value in session.cache_stats.items():
            delta[key] = delta.get(key, 0) + value - baseline.get(key, 0)
    return delta


def _run_shard(shard: _Shard, sessions: dict, options, emit) -> dict:
    """Run every cell of a shard, calling ``emit(position, result)`` as
    each finishes; returns the shard's cache-usage statistics."""
    before = _cache_snapshot(sessions)
    for position, cell in shard.cells:
        emit(position, _run_cell(cell, sessions, options))
    return {
        "shard": shard.index,
        "key": "/".join(str(part) for part in shard.key),
        "cells": len(shard.cells),
        "attempt": shard.attempt,
        "cache": _cache_delta(sessions, before),
    }


# -------------------------------------------------------------- journaling


JOURNAL_VERSION = 1

#: Journal verdicts that count as *finished*: a resumed run restores them
#: instead of re-running.  ERROR and the degraded verdicts (CRASHED,
#: TIMEOUT, OOM) are deliberately not final — the whole point of resuming
#: is to give them another go, and a budget is a property of one run, not
#: of the cell.
_FINAL_VERDICTS_EXCLUDED = ("ERROR",) + tuple(limits.DEGRADED_VERDICTS)


class JournalError(ValueError):
    """A journal file does not match the requested matrix run."""


def _journal_fingerprint(cells) -> str:
    payload = json.dumps(
        [[c.implementation, c.test, c.model, c.kind] for c in cells],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _journal_entry(position: int, result: CellResult) -> dict:
    return {
        "position": position,
        "key": result.cell.key,
        "kind": result.cell.kind,
        "verdict": result.verdict,
        "passed": result.passed,
        "allowed": result.allowed,
        "degraded": result.degraded,
        "error": result.error,
        "seconds": result.seconds,
        "counterexample": result.counterexample,
        "notes": list(result.notes),
        "stats": dict(result.stats),
    }


def _result_from_journal(cell: MatrixCell, entry: dict) -> CellResult:
    stats = dict(entry.get("stats", {}))
    stats["resumed"] = True
    return CellResult(
        cell=cell,
        passed=entry.get("passed"),
        allowed=entry.get("allowed"),
        seconds=entry.get("seconds", 0.0),
        error=entry.get("error", ""),
        degraded=entry.get("degraded", ""),
        counterexample=entry.get("counterexample", ""),
        notes=list(entry.get("notes", [])),
        stats=stats,
    )


def _load_journal(path: str, fingerprint: str, cells) -> dict[int, CellResult]:
    """Parse a journal, returning the finished cells by position.

    The header's cell-set fingerprint must match the requested run — a
    journal from a different matrix silently "finishing" the wrong cells
    would be much worse than an error.  A torn final line (the writer
    died mid-write) is ignored.
    """
    finished: dict[int, CellResult] = {}
    with open(path, "r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line.strip():
            return finished
        try:
            header = json.loads(header_line)
        except ValueError as exc:
            raise JournalError(
                f"{path}: not a matrix journal (unparseable header)"
            ) from exc
        if header.get("journal") != JOURNAL_VERSION:
            raise JournalError(
                f"{path}: unsupported journal version "
                f"{header.get('journal')!r}"
            )
        if header.get("fingerprint") != fingerprint:
            raise JournalError(
                f"{path}: journal was written for a different cell set "
                f"(fingerprint {header.get('fingerprint')!r}, this run "
                f"is {fingerprint!r}); use a fresh --journal file"
            )
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue  # torn tail line from a dead writer
            position = entry.get("position")
            if not isinstance(position, int) or not (
                0 <= position < len(cells)
            ):
                continue
            cell = cells[position]
            if entry.get("key") != cell.key:
                raise JournalError(
                    f"{path}: entry for position {position} names "
                    f"{entry.get('key')!r}, expected {cell.key!r}"
                )
            if entry.get("verdict") in _FINAL_VERDICTS_EXCLUDED:
                finished.pop(position, None)
                continue
            # Last entry for a position wins (a resumed run may append a
            # fresh verdict for a cell an earlier run left as ERROR).
            finished[position] = _result_from_journal(cell, entry)
    return finished


# ------------------------------------------------------------- orchestrator


def _worker_main(worker_id, task_queue, result_queue, options) -> None:
    """Worker process: pull shards until the ``None`` sentinel.

    Sessions stay warm across shards, so a worker that processes several
    shards of one implementation compiles its C source once.  Messages:
    ``("start", worker, shard)`` before a shard (so the parent knows what
    was in flight if this process dies), ``("cell", worker, shard,
    position, result)`` per cell, ``("shard", worker, stats)`` after, and
    ``("done", worker)`` on clean exit.
    """
    sessions: dict = {}
    crash_attempts = faults.crash_attempts()
    hang_attempts = faults.hang_attempts()
    while True:
        shard = task_queue.get()
        if shard is None:
            result_queue.put(("done", worker_id))
            return
        result_queue.put(("start", worker_id, shard.index))
        if crash_attempts and any(
            shard.attempt <= crash_attempts.get(cell.key, 0)
            for _, cell in shard.cells
        ):
            # Fault injection for the worker-crash tests: die mid-shard
            # without cleanup, like a segfaulting or OOM-killed solver
            # would.  Flush the queue first so the "start" message is on
            # the wire (a crash during the solve, not during the put); a
            # crash that loses even that is covered by the stall detection
            # in run_matrix.  Attempt-bounded injections crash the first
            # n attempts and let the retry succeed, which is how the chaos
            # tests prove retried cells are verdict-identical.
            result_queue.close()
            result_queue.join_thread()
            os._exit(3)
        if hang_attempts and any(
            shard.attempt <= hang_attempts.get(cell.key, 0)
            for _, cell in shard.cells
        ):
            # Fault injection for the hung-worker paths: ignore SIGTERM
            # (so only the parent's kill() escalation can reap us) and
            # sleep forever instead of checking the shard.
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            while True:
                time.sleep(3600)

        def emit(position, result, _wid=worker_id, _shard=shard.index):
            result.worker = _wid
            if result.result is not None:
                # Don't pickle the shared observation set once per cell;
                # spec size and counterexample text are already in the
                # JSON-safe fields.
                result.result = replace(result.result, specification=None)
            result_queue.put(("cell", _wid, _shard, position, result))

        stats = _run_shard(shard, sessions, options, emit)
        result_queue.put(("shard", worker_id, stats))


def _mp_context():
    # fork is cheap and inherits the imported package; fall back to spawn
    # where fork is unavailable (it pickles cells/options/results fine).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _stop_worker(process) -> None:
    """Tear one worker down, escalating terminate → kill.

    A worker stuck in a SIGTERM-ignoring state (a hung solver call, a
    signal-masked C extension) used to be joined with a timeout and then
    leaked; the final ``kill()`` + join guarantees the process is reaped.
    """
    if not process.is_alive():
        process.join(timeout=1)
        return
    process.terminate()
    process.join(timeout=2)
    if process.is_alive():
        process.kill()
        process.join(timeout=5)


def run_matrix(
    cells,
    jobs: int | None = None,
    shard_by: str = "test",
    options=None,
    progress=None,
    journal: str | None = None,
    resume: bool = False,
) -> MatrixResult:
    """Run a check matrix, optionally across a multiprocessing pool.

    ``jobs=None`` reads ``CHECKFENCE_JOBS`` (default 1).  ``jobs=1`` is the
    deterministic serial path: shards run in order, in-process, sharing
    warm sessions exactly like one worker would.  ``jobs>1`` starts worker
    processes and streams results back as cells finish.  A crashed or hung
    worker's unfinished cells are re-queued to a replacement worker with
    capped retries (:data:`MATRIX_RETRIES`) and quarantined as
    ``CRASHED`` verdicts when the cap is exhausted — the run always
    completes.  ``progress`` (if given) is called as
    ``progress(done, total, cell_result)`` from the parent process, in
    completion order.

    ``journal`` names a JSONL file that receives one line per completed
    cell (plus a header identifying the cell set); with ``resume=True``
    the journal is read first and every finished cell is restored
    verdict-identically instead of re-run, so a campaign that died at cell
    2400 of 2500 reruns only the missing hundred.

    The returned :class:`MatrixResult` lists cell results in the original
    order of ``cells``, so a parallel run is directly comparable to a
    serial one.
    """
    from repro.core.checker import CheckOptions

    cells = list(cells)
    if jobs is None:
        jobs = default_jobs()
    options = options if options is not None else CheckOptions()
    started = time.perf_counter()
    results: dict[int, CellResult] = {}
    shard_stats: list[dict] = []
    total = len(cells)

    interrupt_keys = faults.interrupt_cells()

    # ---- journal / resume
    fingerprint = _journal_fingerprint(cells)
    resumed_results: dict[int, CellResult] = {}
    if journal and resume and os.path.exists(journal):
        resumed_results = _load_journal(journal, fingerprint, cells)
    journal_handle = None
    if journal:
        fresh = not (resume and os.path.exists(journal))
        journal_handle = open(
            journal, "w" if fresh else "a", encoding="utf-8"
        )
        if fresh:
            journal_handle.write(json.dumps({
                "journal": JOURNAL_VERSION,
                "fingerprint": fingerprint,
                "cells": total,
            }) + "\n")
            journal_handle.flush()

    def record(position: int, result: CellResult) -> None:
        results[position] = result
        if journal_handle is not None and not result.stats.get("resumed"):
            journal_handle.write(
                json.dumps(_journal_entry(position, result)) + "\n"
            )
            journal_handle.flush()
        if progress is not None:
            progress(len(results), total, result)
        if interrupt_keys and result.cell.key in interrupt_keys:
            # Fault injection: behave exactly as if Ctrl-C arrived the
            # moment this cell's result was recorded.
            raise KeyboardInterrupt

    def finish(jobs_used: int, shard_count: int) -> MatrixResult:
        return MatrixResult(
            results=[results[i] for i in range(total)],
            jobs=jobs_used,
            shard_by=shard_by,
            shard_count=shard_count,
            elapsed_seconds=time.perf_counter() - started,
            shard_stats=shard_stats,
        )

    try:
        for position in sorted(resumed_results):
            record(position, resumed_results[position])

        shards = shard_cells(cells, shard_by)
        if resumed_results:
            shards = [
                replace(shard, cells=members)
                for shard in shards
                if (members := [
                    (p, c) for p, c in shard.cells if p not in resumed_results
                ])
            ]
        remaining = total - len(resumed_results)

        if jobs <= 1 or len(shards) <= 1 or remaining <= 1:
            sessions: dict = {}
            for shard in shards:
                shard_stats.append(
                    _run_shard(shard, sessions, options, record)
                )
            return finish(1, len(shards))

        return _run_matrix_pool(
            shards, jobs, options, record, finish, shard_stats
        )
    finally:
        if journal_handle is not None:
            journal_handle.close()


def _run_matrix_pool(
    shards, jobs, options, record, finish, shard_stats
) -> MatrixResult:
    """The multiprocess orchestrator: dispatch shards, stream results,
    retry crashed/hung workers' shards, quarantine after the attempt cap,
    and always reap every worker on the way out."""
    jobs = min(jobs, len(shards))
    max_attempts = 1 + MATRIX_RETRIES
    worker_timeout = matrix_worker_timeout()
    ctx = _mp_context()
    task_queue = ctx.Queue()
    result_queue = ctx.Queue()
    for shard in shards:
        task_queue.put(shard)
    # No shutdown sentinels yet: a retried shard must never queue behind
    # them, so they are sent only once every cell is accounted for.

    workers: dict[int, object] = {}
    last_heard: dict[int, float] = {}
    next_worker_id = 0
    spawned = 0
    # Bound respawns: each crash with an in-flight shard consumes one of
    # that shard's attempts, so this cap is unreachable in sane runs and
    # only guards against a pathological crash-on-startup loop.
    max_spawns = jobs + len(shards) * max_attempts

    def spawn_worker() -> bool:
        nonlocal next_worker_id, spawned
        if spawned >= max_spawns:
            return False
        worker_id = next_worker_id
        next_worker_id += 1
        spawned += 1
        process = ctx.Process(
            target=_worker_main,
            args=(worker_id, task_queue, result_queue, options),
            daemon=True,
        )
        process.start()
        workers[worker_id] = process
        last_heard[worker_id] = time.monotonic()
        return True

    #: positions of each shard's cells not yet reported back.
    pending: dict[int, set[int]] = {
        shard.index: {position for position, _ in shard.cells}
        for shard in shards
    }
    shards_by_index = {shard.index: shard for shard in shards}
    in_flight: dict[int, int] = {}   # worker id -> shard index
    finished_workers: set[int] = set()
    crashed_workers: dict[int, object] = {}
    stalled_since: float | None = None

    def live_worker_ids() -> list[int]:
        return [
            worker_id for worker_id in workers
            if worker_id not in finished_workers
            and worker_id not in crashed_workers
        ]

    def handle(message) -> None:
        kind = message[0]
        worker_id = message[1]
        last_heard[worker_id] = time.monotonic()
        if kind == "start":
            _, _, shard_index = message
            if worker_id in crashed_workers:
                # The worker's death was detected before this (flushed
                # but not yet drained) message arrived.  Recording it
                # into in_flight would orphan the shard forever — the
                # death check skips already-crashed workers — so route
                # it straight to the retry path instead.
                retry_or_quarantine(
                    shard_index,
                    f"worker {worker_id} crashed (exit code "
                    f"{crashed_workers[worker_id]})",
                )
            else:
                in_flight[worker_id] = shard_index
        elif kind == "cell":
            _, _, shard_index, position, result = message
            record(position, result)
            remaining = pending.get(shard_index)
            if remaining is not None:
                remaining.discard(position)
                if not remaining:
                    pending.pop(shard_index, None)
                    in_flight.pop(worker_id, None)
        elif kind == "shard":
            _, _, stats = message
            shard_stats.append(stats)
        elif kind == "done":
            finished_workers.add(worker_id)
            in_flight.pop(worker_id, None)

    def drain() -> None:
        while True:
            try:
                handle(result_queue.get_nowait())
            except queue_module.Empty:
                return

    def quarantine(shard_index: int, reason: str) -> None:
        remaining = pending.pop(shard_index, None)
        if not remaining:
            return
        shard = shards_by_index[shard_index]
        for position, cell in shard.cells:
            if position in remaining:
                record(position, CellResult(
                    cell=cell,
                    degraded=limits.CRASHED,
                    error=reason,
                    notes=[reason],
                ))

    def retry_or_quarantine(shard_index: int, reason: str) -> None:
        remaining = pending.get(shard_index)
        if not remaining:
            pending.pop(shard_index, None)
            return
        shard = shards_by_index[shard_index]
        if shard.attempt >= max_attempts:
            quarantine(
                shard_index,
                f"{reason}; giving up after {shard.attempt} attempts",
            )
            return
        retry = _Shard(
            index=shard.index,
            key=shard.key,
            cells=[(p, c) for p, c in shard.cells if p in remaining],
            attempt=shard.attempt + 1,
        )
        shards_by_index[shard_index] = retry
        time.sleep(MATRIX_BACKOFF * shard.attempt)
        task_queue.put(retry)
        # Replace the lost capacity (and guarantee at least one live
        # worker exists to pick the retry up).
        spawn_worker()

    try:
        for _ in range(jobs):
            spawn_worker()
        while pending:
            try:
                handle(result_queue.get(timeout=0.2))
                stalled_since = None
                continue
            except queue_module.Empty:
                pass
            drain()
            # Workers that died without saying goodbye.
            for worker_id, worker in list(workers.items()):
                if (
                    worker.is_alive()
                    or worker_id in finished_workers
                    or worker_id in crashed_workers
                ):
                    continue
                crashed_workers[worker_id] = worker.exitcode
                shard_index = in_flight.pop(worker_id, None)
                if shard_index is not None:
                    retry_or_quarantine(
                        shard_index,
                        f"worker {worker_id} crashed "
                        f"(exit code {worker.exitcode})",
                    )
            # Hung workers: an in-flight shard with no message for too
            # long.  Kill (terminate is not enough for a SIGTERM-ignoring
            # worker) and treat like a crash.
            if worker_timeout is not None:
                now = time.monotonic()
                for worker_id in list(in_flight):
                    if (
                        worker_id in finished_workers
                        or worker_id in crashed_workers
                    ):
                        continue
                    if now - last_heard.get(worker_id, now) <= worker_timeout:
                        continue
                    worker = workers[worker_id]
                    _stop_worker(worker)
                    crashed_workers[worker_id] = "hung"
                    shard_index = in_flight.pop(worker_id)
                    retry_or_quarantine(
                        shard_index,
                        f"worker {worker_id} hung (no progress for "
                        f"{worker_timeout:g}s)",
                    )
            if pending and not live_worker_ids():
                # Every worker is gone (e.g. crashes with no in-flight
                # shard consumed no retry): bring capacity back, or give
                # the remaining shards up if the spawn budget is gone.
                if not spawn_worker():
                    drain()
                    for shard_index in list(pending):
                        quarantine(
                            shard_index,
                            "no live workers left and respawn budget "
                            "exhausted",
                        )
                    task_queue.cancel_join_thread()
                    break
            # Stall detection: live workers, nothing in flight, nothing
            # arriving, but cells still pending — a shard was lost with
            # its "start" message (a crash can lose the queue tail).
            if pending and not in_flight and task_queue.empty():
                now = time.monotonic()
                if stalled_since is None:
                    stalled_since = now
                elif now - stalled_since > 5.0:
                    drain()
                    if pending and not in_flight and task_queue.empty():
                        for shard_index in list(pending):
                            quarantine(
                                shard_index,
                                "shard lost in transit (worker crashed "
                                "before reporting it)",
                            )
                    stalled_since = None
            else:
                stalled_since = None

        for worker_id in live_worker_ids():
            task_queue.put(None)
        for worker in workers.values():
            worker.join(timeout=5)
            if worker.is_alive():
                _stop_worker(worker)
        drain()  # trailing "shard"/"done" messages sent after the last cell
    except KeyboardInterrupt:
        # Ctrl-C (or the interrupt fault injection): tear the pool down
        # instead of leaving orphaned workers grinding on solver calls,
        # then re-raise so the caller (the CLI maps it to exit code 130)
        # still sees the interrupt.  _stop_worker escalates terminate →
        # kill, so even a SIGTERM-ignoring worker is reaped.
        for worker in workers.values():
            _stop_worker(worker)
        task_queue.cancel_join_thread()
        result_queue.cancel_join_thread()
        raise

    return finish(jobs, len(shards))
