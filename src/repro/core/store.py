"""Persistent on-disk result store: the one record of finished work.

Re-running an unchanged check matrix re-pays compilation, specification
mining, encoding, and solving for every cell even though nothing that
could change the answer has changed, and a killed campaign loses every
cell it finished.  This module is the durable cache behind both: one
sqlite database under ``~/.cache/checkfence`` (or
``CHECKFENCE_CACHE_DIR``) whose cells are keyed by a **content hash**
of everything a result depends on, plus a fingerprint of the checker's
own code (every ``src/repro`` Python and C file) and
:data:`CACHE_VERSION`.  Three cell kinds are stored:

* ``verdict`` — the JSON-safe essence of a catalog
  :class:`~repro.core.results.CheckResult`, written by
  :class:`~repro.core.session.CheckSession`.  Its key names the
  implementation (name and full C source), the symbolic test (the same
  fingerprint the in-memory session caches use), the memory model, and
  the resolved check options (specification method, loop bounds, range
  analysis) — not the solver stack, which cannot change a verdict.
* ``spec`` — a mined observation set, keyed like a verdict minus the
  model: it saves the serial-model mining even when the verdict cell
  misses.
* ``cell`` — the JSON fields of a litmus, fuzz or engines
  :class:`~repro.harness.matrix.CellResult`, written by the matrix.  Its
  key names the cell (kind, implementation column, test, model) and the
  solver stack its SAT engine ran, because the stack is what a
  differential cell tests.

Because the key is a content hash, invalidation is automatic: editing an
implementation, a test, an option, or the checker itself changes the key
and the stale cell is simply never found again (``checkfence cache
--clear`` reclaims the space).  Degraded (TIMEOUT/OOM/CRASHED) and
ERROR results are never stored, so rerunning a killed or budget-starved
campaign with the store on recomputes exactly the cells without a
verdict.

The store is **off by default** — checks are exactly as reproducible as
before unless the user opts in with ``--store`` (``CheckOptions.store``).
All sqlite failures degrade to cache misses: a corrupt or unwritable
database never breaks a check.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sqlite3
import time
from pathlib import Path

from repro.core import faults

#: Bumping this invalidates every existing cell (schema or semantics
#: changes that the code fingerprint cannot see, e.g. payload layout).
CACHE_VERSION = 1

_DB_NAME = "store.sqlite"

VERDICT_KIND = "verdict"
SPEC_KIND = "spec"
CELL_KIND = "cell"


def cache_dir() -> Path:
    """Directory holding the store database: ``CHECKFENCE_CACHE_DIR`` when
    set, else ``~/.cache/checkfence``."""
    env = os.environ.get("CHECKFENCE_CACHE_DIR", "").strip()
    if env:
        return Path(env)
    return Path.home() / ".cache" / "checkfence"


_code_fingerprint: str | None = None


def code_fingerprint() -> str:
    """Hash of every Python and C source file under ``src/repro``,
    computed once per process.  Any checker change — encoder, solver
    (the native kernel included), model semantics — moves every cell
    key, so a stale verdict can never be served."""
    global _code_fingerprint
    if _code_fingerprint is None:
        digest = hashlib.sha256()
        root = Path(__file__).resolve().parent.parent
        sources = [*root.rglob("*.py"), *root.rglob("*.c")]
        for path in sorted(sources):
            digest.update(str(path.relative_to(root)).encode("utf-8"))
            digest.update(b"\0")
            try:
                digest.update(path.read_bytes())
            except OSError:
                pass
            digest.update(b"\0")
        _code_fingerprint = digest.hexdigest()
    return _code_fingerprint


def content_key(kind: str, parts) -> str:
    """Content hash of one cell: version + code fingerprint + the
    caller-supplied key parts (any JSON-dumpable structure; non-JSON
    leaves fall back to ``repr``, which is deterministic for the
    dataclasses involved)."""
    payload = json.dumps(
        [CACHE_VERSION, code_fingerprint(), kind, parts],
        sort_keys=True, default=repr,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class StoredCounterexample:
    """A counterexample restored from the store.

    Only the rendered text survives persistence (the structured trace
    holds live encoder state); it quacks like
    :class:`~repro.core.counterexample.CounterexampleTrace` for every
    reporting path, which only ever calls :meth:`format`.
    """

    def __init__(self, text: str) -> None:
        self.text = text

    def format(self) -> str:
        return self.text


class VerdictStore:
    """The sqlite-backed cell store.

    Connections are opened lazily and re-opened after ``fork`` (matrix
    workers inherit the store object but must not share a connection);
    sqlite's write-ahead log lets several workers read and write
    concurrently.  Every sqlite error marks the store broken for this
    process and turns all further operations into cache misses / no-ops.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        self.path = Path(path) if path is not None else cache_dir() / _DB_NAME
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None
        self._broken = False

    # ----------------------------------------------------------- connection

    def _connection(self) -> sqlite3.Connection | None:
        if self._broken:
            return None
        pid = os.getpid()
        if self._conn is not None and self._pid == pid:
            return self._conn
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(str(self.path), timeout=30.0)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            # The connect timeout only covers Python-level lock waits;
            # busy_timeout makes sqlite itself retry a locked database
            # instead of raising "database is locked" when several matrix
            # workers share one --store.
            conn.execute("PRAGMA busy_timeout=30000")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS cells ("
                "key TEXT PRIMARY KEY, "
                "kind TEXT NOT NULL, "
                "payload TEXT NOT NULL, "
                "created REAL NOT NULL)"
            )
            conn.commit()
        except sqlite3.Error:
            self._broken = True
            return None
        self._conn = conn
        self._pid = pid
        return conn

    def __del__(self) -> None:
        # A sqlite3 connection sits in a reference cycle (its statement
        # cache) and would stay open until the cyclic collector runs; a
        # later connection to the same file in this process would then
        # share its stale WAL index, so close it with the store.
        self.close()

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            try:
                self._conn.close()
            except sqlite3.Error:
                pass
        self._conn = None
        self._pid = None

    # ----------------------------------------------------------- cell access

    def get(self, key: str) -> dict | None:
        conn = self._connection()
        if conn is None:
            return None
        try:
            if faults.store_io_active():
                raise sqlite3.OperationalError("injected store I/O fault")
            row = conn.execute(
                "SELECT payload FROM cells WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.Error:
            self._broken = True
            return None
        if row is None:
            return None
        try:
            return json.loads(row[0])
        except ValueError:
            return None

    def put(self, key: str, kind: str, payload: dict) -> None:
        conn = self._connection()
        if conn is None:
            return
        try:
            if faults.store_io_active():
                raise sqlite3.OperationalError("injected store I/O fault")
            conn.execute(
                "INSERT OR REPLACE INTO cells (key, kind, payload, created) "
                "VALUES (?, ?, ?, ?)",
                (key, kind, json.dumps(payload, sort_keys=True), time.time()),
            )
            conn.commit()
        except sqlite3.Error:
            self._broken = True

    # ------------------------------------------------------- administration

    def stats(self) -> dict:
        """Size and per-kind cell counts, for ``checkfence cache``."""
        out = {
            "path": str(self.path),
            "exists": self.path.exists(),
            "size_bytes": 0,
            "cells": 0,
            "kinds": {},
        }
        if not out["exists"]:
            return out
        try:
            out["size_bytes"] = self.path.stat().st_size
        except OSError:
            pass
        conn = self._connection()
        if conn is None:
            return out
        try:
            for kind, count in conn.execute(
                "SELECT kind, COUNT(*) FROM cells GROUP BY kind"
            ):
                out["kinds"][kind] = count
                out["cells"] += count
        except sqlite3.Error:
            self._broken = True
        return out

    def clear(self) -> int:
        """Delete the database (including WAL side files); returns how many
        cells were removed."""
        removed = self.stats()["cells"]
        self.close()
        for suffix in ("", "-wal", "-shm"):
            try:
                Path(str(self.path) + suffix).unlink()
            except OSError:
                pass
        self._broken = False
        return removed


def open_store(
    enabled: bool, path: str | os.PathLike | None = None
) -> VerdictStore | None:
    """A :class:`VerdictStore` when ``enabled``, else ``None``."""
    return VerdictStore(path) if enabled else None


# ------------------------------------------------------------ serialization


def result_payload(result) -> dict:
    """The JSON-safe essence of a :class:`~repro.core.results.CheckResult`.

    The mined specification is not embedded (it has its own cell) and the
    counterexample survives only as its rendered text.
    """
    return {
        "passed": result.passed,
        "notes": list(result.notes),
        "loop_bounds": dict(result.loop_bounds),
        "counterexample": (
            result.counterexample.format()
            if result.counterexample is not None
            else ""
        ),
        "stats": dataclasses.asdict(result.stats),
    }


def restore_result(payload: dict):
    """Rebuild a :class:`~repro.core.results.CheckResult` from a stored
    payload.  Unknown stats fields (from an older code version that
    somehow shares a key — impossible in practice, cheap to guard) are
    dropped rather than crashing."""
    from repro.core.results import CheckResult, CheckStatistics

    known = {f.name for f in dataclasses.fields(CheckStatistics)}
    stats = CheckStatistics(**{
        name: value
        for name, value in payload.get("stats", {}).items()
        if name in known
    })
    stats.store_hit = True
    text = payload.get("counterexample", "")
    return CheckResult(
        passed=payload["passed"],
        implementation=stats.implementation,
        test=stats.test,
        memory_model=stats.memory_model,
        specification=None,
        counterexample=StoredCounterexample(text) if text else None,
        stats=stats,
        loop_bounds=dict(payload.get("loop_bounds", {})),
        notes=list(payload.get("notes", [])),
    )


def spec_payload(spec) -> dict:
    """The JSON-safe form of an
    :class:`~repro.core.specification.ObservationSet`."""
    return {
        "labels": list(spec.labels),
        "observations": sorted(list(o) for o in spec.observations),
        "method": spec.method,
        "mining_seconds": spec.mining_seconds,
        "solver_iterations": spec.solver_iterations,
    }


def restore_spec(payload: dict):
    """Rebuild an :class:`~repro.core.specification.ObservationSet`."""
    from repro.core.specification import ObservationSet

    return ObservationSet(
        labels=list(payload["labels"]),
        observations={tuple(o) for o in payload["observations"]},
        mining_seconds=payload.get("mining_seconds", 0.0),
        method=payload.get("method", "reference"),
        solver_iterations=payload.get("solver_iterations", 0),
    )
