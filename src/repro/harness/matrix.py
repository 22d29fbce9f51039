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
  shard: it groups by compiled-test key (kind, implementation, test), so
  one :class:`~repro.core.session.CheckSession` compiles the test and
  mines its specification once and then checks it under every model;
* :func:`run_matrix` is the orchestrator.  With ``jobs=1`` it runs the
  shards in order in-process (the deterministic serial path).  With
  ``jobs>1`` it starts worker processes, each with its own duplex pipe,
  and sends each idle worker the next shard.  Workers keep warm
  ``CheckSession`` objects per implementation across shards and stream
  :class:`CellResult` messages back over their pipes as cells finish, so
  progress is reported live.  Results are merged back into the original
  cell order, so serial and parallel runs produce the same sequence of
  verdicts.

Fault tolerance (the robustness layer):

* cells run under the per-cell resource budget of
  :mod:`repro.core.limits` (``options.timeout`` /
  ``options.memory_limit_mb``), degrading to first-class ``TIMEOUT`` /
  ``OOM`` verdicts instead of hanging a worker;
* the parent always knows which shard each worker holds, because it
  sent it: a crashed worker (its pipe closes) or a hung one (busy and
  silent for ``CHECKFENCE_MATRIX_WORKER_TIMEOUT`` seconds) is stopped and
  its shard's unfinished cells are *re-queued* with capped retries
  (:data:`MATRIX_RETRIES`) and a small backoff; cells still unfinished
  after the attempt cap are quarantined as explicit ``CRASHED``
  verdicts, and a worker that dies while idle costs no shard an attempt;
* with the persistent store on (``options.store``, see
  :mod:`repro.core.store`) every cell with a verdict is recorded as it
  finishes — a catalog cell by its session, a litmus, fuzz or engines
  cell here — so rerunning a killed campaign against the same store
  serves the finished cells and recomputes only the rest;
* pool teardown escalates terminate → kill, so a worker stuck in a
  SIGTERM-ignoring state (hung solver, masked signals) is never leaked.

Fault *injection* for all of the above lives in
:mod:`repro.core.faults` (``CHECKFENCE_FAULT=worker-crash:<key>,...``).

The CLI surface is ``checkfence matrix`` (``--jobs``, ``--solver``,
``--json``, ``--timeout``, ``--store``; ``--litmus`` for the Fig. 2
litmus matrix); ``checkfence fuzz`` is built on top of this module.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import multiprocessing
import os
import signal
import time
import traceback
from dataclasses import dataclass, field, replace
from multiprocessing.connection import Connection, wait

from repro.core import faults, limits
from repro.core import store as result_store
from repro.core.checker import CheckOptions
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
#: (see :mod:`repro.fuzz.generator`), ``implementation`` the engines that
#: compare its outcome sets (see :func:`repro.fuzz.harness.fuzz_cells`),
#: and the verdict is "the engines agree".
FUZZ_KIND = "fuzz"

#: Extra attempts granted to the unfinished cells of a crashed or hung
#: worker before they are quarantined as ``CRASHED`` (so the total
#: attempt cap is retries + 1).
MATRIX_RETRIES = 2
#: Seconds slept (scaled by the attempt number) before re-queuing a
#: crashed or hung worker's shard.
MATRIX_BACKOFF = 0.05
#: Parent-side hung-worker watchdog: a worker holding a shard that has
#: sent no message for this many seconds is killed and its shard
#: re-queued like a crash.  Unset/empty disables the watchdog.
WORKER_TIMEOUT_ENV = "CHECKFENCE_MATRIX_WORKER_TIMEOUT"
#: Longest single sleep of the pool loop, in seconds: ``wait`` cannot sleep
#: past ``INT_MAX`` milliseconds, and the loop re-arms the watchdog on every
#: pass, so a larger timeout still fires at the configured silence.
_MAX_WAIT = 3600.0


def default_jobs() -> int:
    """Worker count used when ``jobs`` is not given.

    Reads the ``CHECKFENCE_JOBS`` environment variable (so CI can run the
    whole suite through the pool with ``CHECKFENCE_JOBS=2``); defaults to 1
    (the deterministic serial path).  A value that is not an integer of at
    least 1 raises :class:`ValueError` naming the variable.
    """
    value = os.environ.get("CHECKFENCE_JOBS", "").strip()
    if not value:
        return 1
    try:
        jobs = int(value)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(
            f"CHECKFENCE_JOBS must be an integer of at least 1, got {value!r}"
        )
    return jobs


# --------------------------------------------------------------------- cells


@dataclass(frozen=True)
class MatrixCell:
    """One independent check: an (implementation, test, model) coordinate.

    ``kind`` selects the pipeline: :data:`CATALOG_KIND` cells run the full
    Fig. 1 check of a data type implementation against a Fig. 8 test;
    :data:`LITMUS_KIND` cells ask whether a litmus observation is reachable
    (``implementation`` is the constant ``"litmus"`` and ``test`` names the
    litmus shape); :data:`FUZZ_KIND` cells differentially compare outcome
    engines on a generated program (``implementation`` names the engines
    and ``test`` is the replayable spec).
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
    ``specification`` before sending it down their pipe (the mined
    observation set is the heavy part and would be pickled once per model
    otherwise — on the serial path it survives intact).  ``stats`` is the
    JSON-safe view for reporting (for catalog cells,
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
        if self.cell.kind == FUZZ_KIND:
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

    def cache_totals(self) -> dict:
        """Aggregate cache counters over all shards: how often each
        CheckSession stage ran vs was reused, and the persistent-store
        lookups of every cell kind."""
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
            f"{len(self.results)} cells in {self.shard_count} shards, "
            f"jobs={self.jobs}, "
            f"{self.elapsed_seconds:.2f}s elapsed; "
            f"compiled {cache.get('compile', 0)}x, "
            f"spec mined {cache.get('mine', 0)}x, "
            f"{reused} cache hits"
        )
        if cache.get("store_hits"):
            line += f"; {cache['store_hits']} store hits"
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


def shard_cells(cells) -> list[_Shard]:
    """Group cells into shards by compiled-test key (kind, implementation,
    test), so one CheckSession compiles each test once and mines its
    specification once for all models; preserves first-seen order of
    both shards and cells."""
    grouped: dict[tuple, list[tuple[int, MatrixCell]]] = {}
    for position, cell in enumerate(cells):
        key = (cell.kind, cell.implementation, cell.test)
        grouped.setdefault(key, []).append((position, cell))
    return [
        _Shard(index=index, key=key, cells=members)
        for index, (key, members) in enumerate(grouped.items())
    ]


# ------------------------------------------------------------ cell execution


#: The :class:`CellResult` fields a stored litmus, fuzz or engines cell
#: keeps: its verdict and report, not the run that produced it (time,
#: worker).  ERROR and degraded cells are never stored.
_STORED_FIELDS = ("passed", "allowed", "counterexample", "notes", "stats")


class _Runner:
    """Runs cells in one process — the serial path, or one pool worker —
    and keeps what they share across shards: a warm
    :class:`CheckSession` per implementation, and the persistent store
    (``None`` while off), opened once from ``options.store``.

    A catalog cell reaches the store through its session; a litmus,
    fuzz or engines cell through :meth:`_stored`, whose lookups
    ``store_stats`` counts the way a session's ``cache_stats`` counts
    its own.
    """

    def __init__(self, options) -> None:
        self.options = options
        self.sessions: dict[str, CheckSession] = {}
        self.store = result_store.open_store(options.store)
        self.store_stats = {"store_hits": 0, "store_misses": 0}

    @functools.cached_property
    def stack(self) -> tuple:
        """The solver stack a litmus or fuzz cell's SAT engine runs (the
        parsed backend spec): part of its store key, since the stack is
        what a differential cell tests."""
        return make_backend_factory(self.options.solver_backend).stack

    def cache_stats(self) -> dict[str, int]:
        """Cache counters summed over the sessions, plus the store
        lookups of the other cell kinds."""
        totals = dict(self.store_stats)
        for session in self.sessions.values():
            for key, value in session.cache_stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def run_shard(self, shard: _Shard, emit) -> dict:
        """Run every cell of a shard, calling ``emit(position, result)``
        as each finishes; returns the shard's cache-usage statistics."""
        before = self.cache_stats()
        for position, cell in shard.cells:
            emit(position, self.run_cell(cell))
        return {
            "shard": shard.index,
            "key": "/".join(str(part) for part in shard.key),
            "cells": len(shard.cells),
            "attempt": shard.attempt,
            "cache": {
                key: value - before.get(key, 0)
                for key, value in self.cache_stats().items()
            },
        }

    def run_cell(self, cell: MatrixCell) -> CellResult:
        """Check one cell, reusing a warm session when one exists.

        Never raises: failures (unknown names, backend errors, ...) become
        ``error`` results and resource-budget breaches become ``degraded``
        results, so one bad cell cannot take down a shard.  The cell runs
        under its own deadline scope built from the options (plus the
        ``cell-timeout`` fault injection), which nested layers — the
        session, the solver backends, the oracle loops — poll.  The
        cell's ``seconds`` is timed here, once, whichever way it ends.
        """
        started = time.perf_counter()
        deadline = limits.deadline_from_options(self.options)
        if cell.key in faults.timeout_cells():
            # Injected expiry: the cell sees an already-expired deadline,
            # so the TIMEOUT path runs without waiting for real wall-clock.
            deadline = limits.Deadline(timeout_seconds=0.0)
        try:
            with limits.deadline_scope(deadline):
                # An already-expired budget (tiny --timeout, injected
                # cell-timeout fault) fails fast instead of waiting for the
                # first in-loop poll, which a small cell may never reach.
                limits.check_deadline()
                if self.store is None or cell.kind == CATALOG_KIND:
                    result = self._check(cell)
                else:
                    result = self._stored(cell)
        except limits.LimitExceeded as exc:
            result = CellResult(
                cell=cell, degraded=exc.kind, notes=[str(exc)]
            )
        except Exception as exc:
            detail = traceback.format_exc(limit=3)
            result = CellResult(
                cell=cell, error=f"{type(exc).__name__}: {exc}\n{detail}"
            )
        result.seconds = time.perf_counter() - started
        return result

    def _stored(self, cell: MatrixCell) -> CellResult:
        """A litmus, fuzz or engines cell served from the store, or
        checked and then stored.  A budget breach or an error raises out
        of :meth:`_check`, so only a cell with a verdict is stored."""
        key = result_store.content_key(result_store.CELL_KIND, [
            cell.kind, cell.implementation, cell.test, cell.model,
            self.stack,
        ])
        payload = self.store.get(key)
        if payload is not None:
            self.store_stats["store_hits"] += 1
            payload["stats"]["store_hit"] = True
            return CellResult(cell=cell, **payload)
        self.store_stats["store_misses"] += 1
        result = self._check(cell)
        self.store.put(key, result_store.CELL_KIND, {
            name: getattr(result, name) for name in _STORED_FIELDS
        })
        return result

    def _check(self, cell: MatrixCell) -> CellResult:
        if cell.kind == FUZZ_KIND:
            from repro.fuzz.harness import run_fuzz_cell

            return run_fuzz_cell(cell, self.options)
        if cell.kind == LITMUS_KIND:
            from repro.litmus.catalog import (
                available_litmus_tests,
                observation_outcome,
            )

            litmus = available_litmus_tests()[cell.test]
            outcome = observation_outcome(
                litmus, cell.model,
                backend_factory=make_backend_factory(
                    self.options.solver_backend
                ),
            )
            return CellResult(
                cell=cell,
                allowed=outcome.allowed,
                stats={"backend": outcome.backend, "order": outcome.order},
            )
        session = self.sessions.get(cell.implementation)
        if session is None:
            session = CheckSession(
                get_implementation(cell.implementation), self.options
            )
            self.sessions[cell.implementation] = session
        test = get_test(category_of(cell.implementation), cell.test)
        result = session.check(test, cell.model)
        if result.degraded:
            # The session already folded the budget breach into a degraded
            # CheckResult (and skipped the store); surface it as a
            # first-class cell verdict.
            return CellResult(
                cell=cell,
                degraded=result.degraded,
                notes=list(result.notes),
                stats=result.stats.as_dict(),
            )
        return CellResult(
            cell=cell,
            passed=result.passed,
            counterexample=(
                result.counterexample.format()
                if result.counterexample is not None
                else ""
            ),
            notes=list(result.notes),
            stats=result.stats.as_dict(),
            result=result,
        )


# ------------------------------------------------------------- orchestrator


def _fault_fires(shard: _Shard, attempts: dict[str, int]) -> bool:
    """Whether an attempt-bounded fault directive covers this run of
    ``shard`` (``attempts`` maps cell keys to the last faulty attempt)."""
    return any(
        shard.attempt <= attempts.get(cell.key, 0) for _, cell in shard.cells
    )


def _worker_main(worker_id, conn, options) -> None:
    """Worker process: check the shards the parent sends over ``conn``
    until it sends ``None`` (or is gone).

    Sessions stay warm across shards, so a worker that processes several
    shards of one implementation compiles its C source once, and the
    worker opens the persistent store once.  Messages: ``("cell",
    position, result)`` per cell and ``("shard", stats)`` after the shard.
    """
    runner = _Runner(options)

    def emit(position, result):
        result.worker = worker_id
        if result.result is not None:
            # Don't pickle the shared observation set once per cell;
            # spec size and counterexample text are already in the
            # JSON-safe fields.
            result.result = replace(result.result, specification=None)
        conn.send(("cell", position, result))

    with contextlib.suppress(EOFError):
        for shard in iter(conn.recv, None):
            if _fault_fires(shard, faults.crash_attempts()):
                # Fault injection for the worker-crash tests: die mid-shard
                # without cleanup, like a segfaulting or OOM-killed solver
                # would.  Attempt-bounded injections crash the first n
                # attempts and let the retry succeed, which is how the
                # chaos tests prove retried cells are verdict-identical.
                os._exit(3)
            if _fault_fires(shard, faults.hang_attempts()):
                # Fault injection for the hung-worker paths: ignore SIGTERM
                # (so only the parent's kill() escalation can reap us) and
                # sleep forever instead of checking the shard.
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
                while True:
                    time.sleep(3600)
            conn.send(("shard", runner.run_shard(shard, emit)))


def _mp_context():
    # fork is cheap and inherits the imported package; fall back to spawn
    # where fork is unavailable (it pickles cells/options/results fine).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _stop_worker(process) -> None:
    """Reap one worker, escalating terminate → kill, so even one stuck in
    a SIGTERM-ignoring state (a hung solver call, a signal-masked C
    extension) is never leaked."""
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
    options: CheckOptions | None = None,
    progress=None,
) -> MatrixResult:
    """Run a check matrix, optionally across a multiprocessing pool.

    ``jobs=None`` reads ``CHECKFENCE_JOBS`` (default 1).  ``jobs=1`` is the
    deterministic serial path: shards run in order, in-process, sharing
    warm sessions exactly like one worker would.  ``jobs>1`` starts worker
    processes and streams results back as cells finish.  A crashed or hung
    worker's unfinished cells are re-queued, to a live worker or a new
    one, with capped retries (:data:`MATRIX_RETRIES`) and quarantined as
    ``CRASHED`` verdicts when the cap is exhausted — the run always
    completes.  ``progress`` (if given) is called as
    ``progress(done, total, cell_result)`` from the parent process, in
    completion order.

    With ``options.store`` on, every cell with a verdict goes into the
    persistent store as it finishes and is served from it on a rerun, so
    a campaign that died at cell 2400 of 2500 reruns only the missing
    hundred.

    The returned :class:`MatrixResult` lists cell results in the original
    order of ``cells``, so a parallel run is directly comparable to a
    serial one.
    """
    cells = list(cells)
    if jobs is None:
        jobs = default_jobs()
    options = options if options is not None else CheckOptions()
    started = time.perf_counter()
    results: dict[int, CellResult] = {}
    shard_stats: list[dict] = []
    total = len(cells)

    interrupt_keys = faults.interrupt_cells()

    def record(position: int, result: CellResult) -> None:
        results[position] = result
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
            shard_count=shard_count,
            elapsed_seconds=time.perf_counter() - started,
            shard_stats=shard_stats,
        )

    shards = shard_cells(cells)
    if jobs <= 1 or len(shards) <= 1:
        runner = _Runner(options)
        for shard in shards:
            shard_stats.append(runner.run_shard(shard, record))
        return finish(1, len(shards))
    return _run_matrix_pool(shards, jobs, options, record, finish, shard_stats)


@dataclass
class _Worker:
    """A pool worker as the parent sees it: the shard it holds (``None``
    while idle) and which of that shard's cells it has not reported."""

    id: int
    process: multiprocessing.process.BaseProcess
    conn: Connection
    shard: _Shard | None = None
    pending: set[int] = field(default_factory=set)
    last_heard: float = 0.0


def _run_matrix_pool(
    shards, jobs, options, record, finish, shard_stats
) -> MatrixResult:
    """The multiprocess orchestrator: send each worker one shard at a
    time over its own pipe, stream results, retry a dead or hung worker's
    shard, quarantine after the attempt cap, and always reap every worker.

    The parent knows the shard each worker holds because it sent it.  A
    dead worker is the end of its pipe (``recv`` raises ``EOFError``); a
    hung one is a busy worker silent for :data:`WORKER_TIMEOUT_ENV`
    seconds.  A worker that dies while idle costs no shard an attempt."""
    jobs = min(jobs, len(shards))
    worker_timeout = limits.env_float(WORKER_TIMEOUT_ENV)
    ctx = _mp_context()
    todo = collections.deque(shards)
    workers: dict[Connection, _Worker] = {}  # by the parent's end
    worker_ids = itertools.count()

    def spawn() -> _Worker:
        conn, child_conn = ctx.Pipe()
        worker_id = next(worker_ids)
        process = ctx.Process(
            target=_worker_main, args=(worker_id, child_conn, options),
            daemon=True,
        )
        process.start()
        child_conn.close()  # so the worker's death closes the pipe
        workers[conn] = _Worker(worker_id, process, conn)
        return workers[conn]

    def retire(worker: _Worker) -> None:
        del workers[worker.conn]
        worker.conn.close()
        _stop_worker(worker.process)

    def dispatch() -> None:
        """Hand queued shards to idle workers, spawning up to ``jobs``."""
        while todo:
            worker = next(
                (w for w in workers.values() if w.shard is None), None
            )
            if worker is None:
                if len(workers) >= jobs:
                    return
                worker = spawn()
            try:
                worker.conn.send(todo[0])
            except OSError:
                retire(worker)  # died while idle: no shard is charged
                continue
            worker.shard = todo.popleft()
            worker.pending = {position for position, _ in worker.shard.cells}
            worker.last_heard = time.monotonic()

    def lost(worker: _Worker, hung: bool = False) -> None:
        """Stop a dead or hung worker, then re-queue the unfinished cells
        of the shard it held or quarantine them at the attempt cap."""
        retire(worker)
        shard = worker.shard
        if shard is None or not worker.pending:
            return  # nothing unfinished, so no shard is charged
        cells = [(p, c) for p, c in shard.cells if p in worker.pending]
        reason = f"worker {worker.id} " + (
            f"hung (no progress for {worker_timeout:g}s)" if hung
            else f"crashed (exit code {worker.process.exitcode})"
        )
        if shard.attempt > MATRIX_RETRIES:
            reason = f"{reason}; giving up after {shard.attempt} attempts"
            for position, cell in cells:
                record(position, CellResult(
                    cell=cell, degraded=limits.CRASHED, error=reason,
                    notes=[reason],
                ))
        else:
            time.sleep(MATRIX_BACKOFF * shard.attempt)
            todo.append(replace(shard, cells=cells, attempt=shard.attempt + 1))

    try:
        dispatch()
        while busy := [w for w in workers.values() if w.shard is not None]:
            timeout = None
            if worker_timeout is not None:
                timeout = min(_MAX_WAIT, max(
                    0.0, min(w.last_heard for w in busy)
                    + worker_timeout - time.monotonic(),
                ))
            for conn in wait(list(workers), timeout):
                worker = workers[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):  # a torn message is a death too
                    lost(worker)
                    continue
                worker.last_heard = time.monotonic()
                if message[0] == "cell":
                    _, position, result = message
                    worker.pending.discard(position)
                    record(position, result)
                else:
                    shard_stats.append(message[1])
                    worker.shard = None
            if worker_timeout is not None:
                now = time.monotonic()
                for worker in list(workers.values()):
                    silent = now - worker.last_heard
                    if worker.shard is not None and silent > worker_timeout:
                        lost(worker, hung=True)
            dispatch()
        for worker in workers.values():
            with contextlib.suppress(OSError):
                worker.conn.send(None)
        for worker in workers.values():
            worker.process.join(timeout=5)
    finally:
        # Also on Ctrl-C (or the interrupt fault), which then propagates
        # (the CLI maps it to exit code 130): no worker is left behind.
        for worker in list(workers.values()):
            retire(worker)
    return finish(jobs, len(shards))
