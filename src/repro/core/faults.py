"""Unified fault injection for robustness testing.

One environment variable, ``CHECKFENCE_FAULT``, carries a
comma-separated list of fault directives that the chaos CI job and the
test suite use to exercise the failure paths deterministically:

``worker-crash:<cell-key>[:<n>]``
    A matrix worker handed a shard containing the cell hard-exits
    (``os._exit``) instead of checking it — but only while the shard's
    attempt number is at most *n* (default 1), so with the default retry
    budget the parent re-queues the shard and the retried run succeeds,
    which is exactly the verdict-identity property the chaos job gates.
``worker-hang:<cell-key>[:<n>]``
    The worker ignores SIGTERM and sleeps instead of checking the
    shard, again only while the attempt is at most *n*.  Exercises the
    parent's hung-worker watchdog and the terminate→kill teardown
    escalation.
``interrupt:<cell-key>``
    The *parent* raises :class:`KeyboardInterrupt` the moment the
    cell's result is recorded, exactly as if the user hit Ctrl-C then.
``cell-timeout:<cell-key>``
    The cell runs under an already-expired deadline, forcing a
    ``TIMEOUT`` verdict without waiting for real wall-clock to pass.
``solver-raise:<n>``
    The *n*-th backend ``solve()`` call in this process raises
    ``RuntimeError`` (several ``solver-raise`` directives arm several
    counts).  Exercises the error-containment paths around solving.
``store-io``
    Every :mod:`repro.core.store` sqlite operation fails as if the
    database file were unreadable; the store must degrade to misses,
    never crash a check.

Parsing is memoised on the raw environment strings: call sites poll
helpers like :func:`crash_attempts` freely without re-splitting on every
shard.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

FAULT_ENV = "CHECKFENCE_FAULT"


@dataclass(frozen=True)
class Fault:
    kind: str
    arg: str = ""
    count: int = 1


def parse_faults(value: str) -> tuple[Fault, ...]:
    """Parse a ``CHECKFENCE_FAULT`` directive list.

    Unknown directives raise :class:`ValueError` so a typo in a CI job
    fails loudly instead of silently injecting nothing.
    """
    faults: list[Fault] = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, rest = chunk.partition(":")
        if kind in ("worker-crash", "worker-hang"):
            arg, _, count_text = rest.rpartition(":")
            if arg and count_text.isdigit():
                count = int(count_text)
            else:
                arg, count = rest, 1
            if not arg:
                raise ValueError(f"{kind} fault needs a cell key: {chunk!r}")
            faults.append(Fault(kind, arg, count))
        elif kind in ("interrupt", "cell-timeout"):
            if not rest:
                raise ValueError(f"{kind} fault needs a cell key: {chunk!r}")
            faults.append(Fault(kind, rest))
        elif kind == "solver-raise":
            if not rest.isdigit() or int(rest) < 1:
                raise ValueError(
                    f"solver-raise fault needs a positive call number:"
                    f" {chunk!r}"
                )
            faults.append(Fault(kind, count=int(rest)))
        elif kind == "store-io":
            if rest:
                raise ValueError(f"store-io fault takes no argument: {chunk!r}")
            faults.append(Fault(kind))
        else:
            raise ValueError(f"unknown fault directive: {chunk!r}")
    return tuple(faults)


_cache_key: Optional[str] = None
_cache_value: tuple[Fault, ...] = ()


def active_faults() -> tuple[Fault, ...]:
    """The faults currently requested by the environment."""
    global _cache_key, _cache_value
    raw = os.environ.get(FAULT_ENV, "")
    if raw != _cache_key:
        _cache_key, _cache_value = raw, parse_faults(raw)
    return _cache_value


def _attempt_map(kind: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for fault in active_faults():
        if fault.kind == kind:
            out[fault.arg] = max(out.get(fault.arg, 0), fault.count)
    return out


def crash_attempts() -> dict[str, int]:
    """Cell key -> crash while ``shard.attempt <=`` this bound."""
    return _attempt_map("worker-crash")


def hang_attempts() -> dict[str, int]:
    """Cell key -> hang while ``shard.attempt <=`` this bound."""
    return _attempt_map("worker-hang")


def interrupt_cells() -> set[str]:
    return {f.arg for f in active_faults() if f.kind == "interrupt"}


def timeout_cells() -> set[str]:
    return {f.arg for f in active_faults() if f.kind == "cell-timeout"}


def store_io_active() -> bool:
    return any(f.kind == "store-io" for f in active_faults())


def solver_raise_counts() -> frozenset[int]:
    return frozenset(
        f.count for f in active_faults() if f.kind == "solver-raise"
    )


# --------------------------------------------------------------------------
# Solver-exception injection.  A process-global solve counter keyed by
# the armed call numbers; the backend factory wraps real backends in the
# proxy only when the fault is active, so the hot path pays nothing.

_solve_calls = 0


def reset_solver_counter() -> None:
    global _solve_calls
    _solve_calls = 0


class FaultySolverProxy:
    """Delegates to a real backend; raises on the armed solve calls."""

    def __init__(self, backend) -> None:
        self._backend = backend

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def solve(self, *args, **kwargs):
        global _solve_calls
        _solve_calls += 1
        if _solve_calls in solver_raise_counts():
            raise RuntimeError(
                f"injected solver fault (solve call #{_solve_calls})"
            )
        return self._backend.solve(*args, **kwargs)
