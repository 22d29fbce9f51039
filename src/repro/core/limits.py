"""Resource governance: wall-clock deadlines and memory budgets.

The paper's own experiments ran into this wall — SAT checking of the
large Fig. 8 tests ran for hours and some configurations never finished
— and the underlying consistency problem is NP-hard in general, so some
cells *will* blow up.  This module gives every long-running loop in the
pipeline a single cheap question to ask ("am I out of budget?") and a
single pair of exceptions to raise when the answer is yes, so a blown-up
cell degrades to an explicit ``TIMEOUT``/``OOM`` verdict instead of
hanging a worker.

Design:

* :class:`Deadline` carries an absolute monotonic expiry plus an
  optional resident-set cap.  ``check()`` raises
  :class:`TimeoutExceeded` / :class:`MemoryExceeded`; callers poll it at
  their existing gas-counter sites (every N conflicts, per mining
  iteration, per enumerated node, ...), so the overhead is a masked
  ``time.monotonic()`` compare.
* A process-local *active deadline* scope (:func:`deadline_scope`)
  decouples the polling sites from the plumbing: the session (or the
  matrix cell runner) establishes the scope once, and deep loops call
  the module-level :func:`check_deadline` without threading a parameter
  through a dozen signatures.  :func:`ensure_scope` lets nested layers
  establish a scope from :class:`~repro.core.checker.CheckOptions`
  without clobbering an ambient one, so a matrix worker's per-cell
  deadline wins over the session's own.
* Memory is judged by *current* RSS (``/proc/self/statm``), not
  ``ru_maxrss`` — the peak never decreases, so a budget based on it
  would poison every cell after the first big one.  On platforms
  without procfs the memory cap silently degrades to "unenforced".

Degraded verdicts (``TIMEOUT``, ``OOM``, and the matrix-level
``CRASHED``) are first-class but *never* cached: a deadline is a
property of one run, not of the (program, test, model) triple.
"""

from __future__ import annotations

import math
import os
import time
from contextlib import contextmanager
from typing import Iterator, Optional

# Degraded verdict labels, shared by results/matrix/reporting so string
# comparisons are typo-proof.
TIMEOUT = "TIMEOUT"
OOM = "OOM"
CRASHED = "CRASHED"
DEGRADED_VERDICTS = frozenset({TIMEOUT, OOM, CRASHED})


class LimitExceeded(Exception):
    """Base class for budget breaches.  ``kind`` is the verdict label."""

    kind = "LIMIT"


class TimeoutExceeded(LimitExceeded):
    kind = TIMEOUT


class MemoryExceeded(LimitExceeded):
    kind = OOM


_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096
_STATM_PATH = "/proc/self/statm"
_HAVE_STATM = os.path.exists(_STATM_PATH)


def current_rss_bytes() -> Optional[int]:
    """Resident set size right now, or ``None`` where unreadable."""
    if not _HAVE_STATM:
        return None
    try:
        with open(_STATM_PATH, "rb") as handle:
            fields = handle.read().split()
        return int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return None


def env_float(name: str) -> Optional[float]:
    """The positive finite number in environment variable ``name``;
    ``None`` when it is unset or empty.  Any other value raises
    :class:`ValueError` naming the variable: a value of 0 or below would
    otherwise switch its limit off without a word."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise ValueError(
            f"{name} must be a positive finite number, got {raw!r}"
        )
    return value


def env_flag(name: str) -> bool:
    """Whether the on/off switch in environment variable ``name`` is on:
    its stripped value is anything but empty or ``"0"``."""
    return os.environ.get(name, "").strip() not in ("", "0")


class Deadline:
    """A wall-clock expiry plus an optional resident-memory cap.

    ``timeout_seconds=None`` means "no wall-clock limit"; likewise for
    ``memory_limit_mb``.  A Deadline with neither is inert (``check()``
    is a no-op) — callers may still create one for uniformity.
    """

    __slots__ = ("timeout_seconds", "memory_limit_mb", "_expires_at",
                 "_memory_limit_bytes")

    def __init__(
        self,
        timeout_seconds: Optional[float] = None,
        memory_limit_mb: Optional[float] = None,
        *,
        started_at: Optional[float] = None,
    ) -> None:
        self.timeout_seconds = timeout_seconds
        self.memory_limit_mb = memory_limit_mb
        if timeout_seconds is None:
            self._expires_at = None
        else:
            base = time.monotonic() if started_at is None else started_at
            self._expires_at = base + max(0.0, timeout_seconds)
        if memory_limit_mb is None:
            self._memory_limit_bytes = None
        else:
            # A float: a cap near the largest float overflows to inf,
            # which no reading exceeds, where ``int()`` would raise.
            self._memory_limit_bytes = memory_limit_mb * 1024 * 1024

    @property
    def enforced(self) -> bool:
        return self._expires_at is not None or \
            self._memory_limit_bytes is not None

    def remaining(self) -> Optional[float]:
        """Seconds until expiry (>= 0), or ``None`` with no time limit."""
        if self._expires_at is None:
            return None
        return max(0.0, self._expires_at - time.monotonic())

    def expired(self) -> bool:
        return self._expires_at is not None and \
            time.monotonic() >= self._expires_at

    def memory_exceeded(self) -> bool:
        if self._memory_limit_bytes is None:
            return False
        rss = current_rss_bytes()
        return rss is not None and rss > self._memory_limit_bytes

    def check(self) -> None:
        """Raise :class:`TimeoutExceeded` / :class:`MemoryExceeded`."""
        if self.expired():
            raise TimeoutExceeded(
                f"deadline exceeded ({self.timeout_seconds:g}s wall-clock"
                " limit)"
            )
        if self.memory_exceeded():
            raise MemoryExceeded(
                f"memory limit exceeded ({self.memory_limit_mb:g} MB"
                " resident cap)"
            )


# --------------------------------------------------------------------------
# Active-deadline scope.  Matrix workers are processes, the CLI is
# single-threaded, so a plain module-level stack suffices; the stack
# discipline (scopes strictly nest) keeps it correct even under the
# session's internal re-entrancy.

_ACTIVE: list[Deadline] = []


def active_deadline() -> Optional[Deadline]:
    return _ACTIVE[-1] if _ACTIVE else None


def check_deadline() -> None:
    """Cheap poll for deep loops: no-op when no deadline is in scope."""
    if _ACTIVE:
        _ACTIVE[-1].check()


@contextmanager
def deadline_scope(deadline: Optional[Deadline]) -> Iterator[Optional[Deadline]]:
    """Install ``deadline`` as the active one for the dynamic extent.

    ``None`` (or an inert deadline) installs nothing, so call sites can
    pass through whatever they computed without branching.
    """
    if deadline is None or not deadline.enforced:
        yield None
        return
    _ACTIVE.append(deadline)
    try:
        yield deadline
    finally:
        _ACTIVE.pop()


def deadline_from_options(options) -> Optional[Deadline]:
    """Build a Deadline from CheckOptions' budgets (None when neither is
    set)."""
    timeout, memory = options.timeout, options.memory_limit_mb
    if timeout is None and memory is None:
        return None
    return Deadline(timeout_seconds=timeout, memory_limit_mb=memory)


@contextmanager
def ensure_scope(options) -> Iterator[Optional[Deadline]]:
    """Yield the ambient deadline, or establish one from ``options``.

    The outermost budget wins: when a matrix cell runner already set a
    per-cell deadline, a nested ``CheckSession.check`` must not replace
    it with a fresh (later-expiring) one.
    """
    ambient = active_deadline()
    if ambient is not None:
        yield ambient
        return
    with deadline_scope(deadline_from_options(options)) as deadline:
        yield deadline
