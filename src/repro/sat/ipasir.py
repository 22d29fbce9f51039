"""Incremental external solving through the IPASIR C API.

IPASIR ("Reentrant Incremental Sat solver API", the standard interface of
the SAT competition incremental track) is the lingua franca of incremental
SAT solvers: cadical, picosat, cryptominisat, lingeling and friends all
ship a shared library exporting

* ``ipasir_init`` / ``ipasir_release`` — solver lifecycle,
* ``ipasir_add`` — push clause literals (0-terminated),
* ``ipasir_assume`` — add a one-shot assumption for the next solve,
* ``ipasir_solve`` — returns 10 (SAT), 20 (UNSAT) or 0 (interrupted),
* ``ipasir_val`` — model value of a literal after SAT,
* ``ipasir_failed`` — failed-assumption membership after UNSAT.

Where the paper's toolchain exported one monolithic CNF per query and
restarted zChaff from scratch, an IPASIR solver *persists* across the
hundreds of solve/block iterations the specification miner and the fence
inference loop issue, so learned clauses from one query prune the next.

:class:`IpasirBackend` loads an IPASIR shared library via :mod:`ctypes`.
It registers under the ``ipasir:<path>`` backend spec (see
:func:`repro.sat.backend.make_backend_factory`); the path may be a file or
a loader soname such as ``libcadical.so``.  The in-tree native kernel
(:mod:`repro.sat.native`) exports the same interface, so
``ipasir:<path-of-the-kernel>`` also works.

Each library is loaded once per process (:func:`load_ipasir_library`).
"""

from __future__ import annotations

import ctypes
import os
import sys
from functools import partial
from typing import Callable, Iterable, Sequence

from repro.core import limits
from repro.sat.cnf import CNF
from repro.sat.solver import SolverError, SolverStats

IPASIR_SAT = 10
IPASIR_UNSAT = 20

#: C type of the optional ``ipasir_set_terminate`` callback: called
#: periodically by the solver; a non-zero return aborts the solve.  The
#: null callback uninstalls it.
TERMINATE_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_void_p)
NO_TERMINATE = TERMINATE_CALLBACK()

#: The symbols every IPASIR implementation must export.
_REQUIRED_SYMBOLS = (
    "ipasir_init",
    "ipasir_release",
    "ipasir_add",
    "ipasir_assume",
    "ipasir_solve",
    "ipasir_val",
    "ipasir_failed",
)


class IpasirError(SolverError):
    """An IPASIR library could not be loaded or misbehaved, or was handed
    input no IPASIR call may take (a literal 0)."""


def solve_polled(
    set_terminate: Callable[[object], None], solve: Callable[[], int]
) -> int:
    """``solve()``, an IPASIR-style solve call, under a terminate callback
    that ``set_terminate(callback)`` installs for its duration.

    The callback checks the active deadline and stops the search once
    that check, or anything else inside the callback (such as Ctrl-C,
    whose pending signal is raised on entry), raises.  ctypes cannot
    return an exception from a callback, so the first one is kept and
    re-raised here after the C call has returned: the breach the poll
    saw, not a fresh reading, decides what a stopped search raises.
    """
    deadline = limits.active_deadline()
    if deadline is not None:
        deadline.check()
    stop: list[BaseException] = []

    def should_stop(_data) -> int:
        try:
            if not stop and deadline is not None:
                deadline.check()
        except BaseException as exc:
            stop.append(exc)
        return int(bool(stop))

    def keep_exception(unraisable) -> None:
        # An exception raised before the callback's own handler runs
        # reaches the unraisable hook instead; it stops the search at the
        # next poll.  Swapping the process-wide hook assumes one solving
        # thread, which is how the checker runs.
        if unraisable.object is should_stop:
            stop.append(unraisable.exc_value)
        else:
            previous_hook(unraisable)

    poll = TERMINATE_CALLBACK(should_stop)  # must outlive the C call
    previous_hook, sys.unraisablehook = sys.unraisablehook, keep_exception
    set_terminate(poll)
    try:
        result = solve()
    finally:
        set_terminate(NO_TERMINATE)
        sys.unraisablehook = previous_hook
    if stop:
        raise stop[0]
    return result


class IpasirLibrary:
    """A loaded IPASIR shared library with typed entry points."""

    def __init__(self, path: str) -> None:
        try:
            cdll = ctypes.CDLL(path)
        except OSError as exc:
            raise IpasirError(f"cannot load IPASIR library {path!r}: {exc}")
        missing = [
            symbol for symbol in _REQUIRED_SYMBOLS
            if not hasattr(cdll, symbol)
        ]
        if missing:
            raise IpasirError(
                f"{path!r} is not an IPASIR library "
                f"(missing symbols: {', '.join(missing)})"
            )
        self.path = path
        self._cdll = cdll
        cdll.ipasir_init.restype = ctypes.c_void_p
        cdll.ipasir_init.argtypes = []
        cdll.ipasir_release.restype = None
        cdll.ipasir_release.argtypes = [ctypes.c_void_p]
        cdll.ipasir_add.restype = None
        cdll.ipasir_add.argtypes = [ctypes.c_void_p, ctypes.c_int32]
        cdll.ipasir_assume.restype = None
        cdll.ipasir_assume.argtypes = [ctypes.c_void_p, ctypes.c_int32]
        cdll.ipasir_solve.restype = ctypes.c_int
        cdll.ipasir_solve.argtypes = [ctypes.c_void_p]
        cdll.ipasir_val.restype = ctypes.c_int32
        cdll.ipasir_val.argtypes = [ctypes.c_void_p, ctypes.c_int32]
        cdll.ipasir_failed.restype = ctypes.c_int
        cdll.ipasir_failed.argtypes = [ctypes.c_void_p, ctypes.c_int32]
        if hasattr(cdll, "ipasir_signature"):
            cdll.ipasir_signature.restype = ctypes.c_char_p
            cdll.ipasir_signature.argtypes = []
        self.supports_terminate = hasattr(cdll, "ipasir_set_terminate")
        if self.supports_terminate:
            cdll.ipasir_set_terminate.restype = None
            cdll.ipasir_set_terminate.argtypes = [
                ctypes.c_void_p, ctypes.c_void_p, TERMINATE_CALLBACK
            ]

    def signature(self) -> str:
        if hasattr(self._cdll, "ipasir_signature"):
            raw = self._cdll.ipasir_signature()
            if raw:
                return raw.decode("utf-8", "replace")
        return os.path.basename(self.path)

    def init(self) -> int:
        handle = self._cdll.ipasir_init()
        if not handle:
            raise IpasirError(f"ipasir_init() of {self.path!r} returned NULL")
        return handle

    def release(self, handle: int) -> None:
        self._cdll.ipasir_release(handle)

    def add(self, handle: int, literal: int) -> None:
        self._cdll.ipasir_add(handle, literal)

    def assume(self, handle: int, literal: int) -> None:
        self._cdll.ipasir_assume(handle, literal)

    def solve(self, handle: int) -> int:
        return self._cdll.ipasir_solve(handle)

    def val(self, handle: int, literal: int) -> int:
        return self._cdll.ipasir_val(handle, literal)

    def failed(self, handle: int, literal: int) -> bool:
        return bool(self._cdll.ipasir_failed(handle, literal))

    def set_terminate(self, handle: int, callback) -> None:
        """Install (or with :data:`NO_TERMINATE` clear) the terminate hook;
        no-op when the library does not export ``ipasir_set_terminate``."""
        if self.supports_terminate:
            self._cdll.ipasir_set_terminate(handle, None, callback)


_LOADED: dict[str, IpasirLibrary] = {}


def load_ipasir_library(path: str) -> IpasirLibrary:
    """The :class:`IpasirLibrary` at ``path``, loaded once per process."""
    library = _LOADED.get(path)
    if library is None:
        library = _LOADED[path] = IpasirLibrary(path)
    return library


class IpasirBackend:
    """A persistent incremental solver behind the SolverBackend protocol.

    The underlying IPASIR solver object lives for the whole backend
    lifetime: clauses accumulate, assumptions are one-shot (exactly the
    protocol :class:`repro.encoding.formula.EncodedTest` expects), and the
    solver's learned clauses carry over between the solve/block iterations
    of the mining loops.
    """

    def __init__(self, library: IpasirLibrary | str) -> None:
        if isinstance(library, str):
            library = load_ipasir_library(library)
        self._library = library
        self._handle = library.init()
        self.name = f"ipasir({library.signature()})"
        self._num_vars = 0
        self._last_result: bool | None = None
        self._failed: list[int] = []

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        handle = getattr(self, "_handle", None)
        if handle:
            try:
                self._library.release(handle)
            except Exception:
                pass
            self._handle = None

    # ----------------------------------------------------------- clause I/O

    def ensure_vars(self, num_vars: int) -> None:
        if num_vars > self._num_vars:
            self._num_vars = num_vars

    def add_clause(self, literals: Iterable[int]) -> bool:
        return self.add_clauses([tuple(literals)])

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Push each clause, 0-terminated.  A clause holding a 0 raises
        before any of its literals reaches the library, which would
        otherwise prefix them to the next clause added."""
        add = self._library.add
        handle = self._handle
        num_vars = self._num_vars
        ok = True
        for clause in clauses:
            if 0 in clause:
                self._num_vars = num_vars
                raise IpasirError("0 is not a valid literal")
            for lit in clause:
                var = lit if lit > 0 else -lit
                if var > num_vars:
                    num_vars = var
                add(handle, lit)
            add(handle, 0)
            if not clause:
                ok = False
        self._num_vars = num_vars
        return ok

    def add_cnf(self, cnf: CNF, start: int = 0) -> bool:
        self.ensure_vars(cnf.num_vars)
        return self.add_clauses(cnf.clauses[start:])

    # -------------------------------------------------------------- solving

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        # IPASIR solvers run to completion, unless the optional
        # ipasir_set_terminate hook aborts the solve on a deadline breach
        # or Ctrl-C (libraries without the hook are still checked between
        # solves).
        self._failed = []
        self._last_result = None
        assumptions = tuple(assumptions)
        if 0 in assumptions:
            # Checked here: a 0 would end the library's assumption list.
            raise IpasirError("0 is not a valid assumption literal")
        library = self._library
        handle = self._handle

        def assume_and_solve() -> int:
            for lit in assumptions:
                library.assume(handle, lit)
            return library.solve(handle)

        result = solve_polled(
            partial(library.set_terminate, handle), assume_and_solve
        )
        if result == IPASIR_SAT:
            self._last_result = True
            return True
        if result == IPASIR_UNSAT:
            self._last_result = False
            self._failed = [
                lit for lit in assumptions if library.failed(handle, lit)
            ]
            return False
        raise IpasirError(
            f"{self.name} returned unexpected solve status {result}"
        )

    def failed_assumptions(self) -> list[int]:
        """Subset of the last solve's assumptions already unsatisfiable
        together with the formula (``ipasir_failed``); empty when the
        formula alone is unsatisfiable or the last result was SAT (guarded
        by the recorded result, so an error path never leaks a core)."""
        if self._last_result is not False:
            return []
        return list(self._failed)

    def model(self) -> dict[int, bool]:
        if not self._last_result:
            return {}
        library = self._library
        handle = self._handle
        return {
            var: library.val(handle, var) > 0
            for var in range(1, self._num_vars + 1)
        }

    def values_of(self, variables: Iterable[int]) -> dict[int, bool]:
        if not self._last_result:
            return {}
        library = self._library
        handle = self._handle
        num_vars = self._num_vars
        return {
            var: (library.val(handle, var) > 0) if 0 < var <= num_vars
            else False
            for var in variables
        }

    def stats(self) -> SolverStats | None:
        """IPASIR exposes no counter API; None means unavailable."""
        return None
