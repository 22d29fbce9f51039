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

:class:`IpasirBackend` loads an IPASIR shared library via :mod:`ctypes`
(``CHECKFENCE_IPASIR_LIB``, or auto-discovery of
``libcadical``/``libcryptominisat5``/``libpicosat``/``liblingeling``).  It
registers under the ``ipasir`` backend spec (see
:func:`repro.sat.backend.make_backend_factory`): ``ipasir`` auto-discovers
a library and falls back to the pure-Python kernel, and ``ipasir:<path>``
loads a specific shared library.  The in-tree native kernel
(:mod:`repro.sat.native`) exports the same interface, so
``ipasir:<path-of-the-kernel>`` also works.

Each library is loaded once per process (:func:`load_ipasir_library`), and
a backend factory resolves the auto-discovered library once, not once per
backend.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import os
from typing import Iterable, Sequence

from repro.core import limits
from repro.sat.cnf import CNF
from repro.sat.solver import SolverStats

IPASIR_SAT = 10
IPASIR_UNSAT = 20
IPASIR_INTERRUPTED = 0

#: C type of the optional ``ipasir_set_terminate`` callback: called
#: periodically by the solver; a non-zero return aborts the solve.
TERMINATE_CALLBACK = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_void_p)

#: Environment variable naming the shared library to load for ``ipasir``.
IPASIR_LIB_ENV = "CHECKFENCE_IPASIR_LIB"

#: Library base names probed (via ctypes.util.find_library and common
#: soname spellings) when no explicit path is configured.
_KNOWN_LIBRARIES: tuple[str, ...] = (
    "cadical",
    "cryptominisat5",
    "picosat",
    "lingeling",
)

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


class IpasirError(RuntimeError):
    """An IPASIR library could not be loaded or misbehaved."""


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
        """Install (or with ``callback=None`` clear) the terminate hook;
        no-op when the library does not export ``ipasir_set_terminate``."""
        if self.supports_terminate:
            self._cdll.ipasir_set_terminate(
                handle, None,
                callback if callback is not None else TERMINATE_CALLBACK(),
            )


_LOADED: dict[str, IpasirLibrary] = {}


def load_ipasir_library(path: str) -> IpasirLibrary:
    """The :class:`IpasirLibrary` at ``path``, loaded once per process."""
    library = _LOADED.get(path)
    if library is None:
        library = _LOADED[path] = IpasirLibrary(path)
    return library


#: Discovery results by ``CHECKFENCE_IPASIR_LIB`` value.  Fuzz and litmus
#: runs build a backend factory per cell, and every probe shells out once
#: per missing library, so a process probes once.
_DISCOVERED: dict[str, str | None] = {}


def find_ipasir_library() -> str | None:
    """Locate an IPASIR shared library: ``CHECKFENCE_IPASIR_LIB`` first,
    then :func:`ctypes.util.find_library` and common soname spellings of
    the known solvers.  Returns a loadable path/soname or None."""
    configured = os.environ.get(IPASIR_LIB_ENV, "")
    if configured not in _DISCOVERED:
        _DISCOVERED[configured] = configured or _probe_known_libraries()
    return _DISCOVERED[configured]


def _probe_known_libraries() -> str | None:
    candidates: list[str] = []
    for base in _KNOWN_LIBRARIES:
        found = ctypes.util.find_library(base)
        if found:
            candidates.append(found)
        candidates.append(f"lib{base}.so")
    for candidate in candidates:
        try:
            load_ipasir_library(candidate)
        except IpasirError:
            continue
        return candidate
    return None


class IpasirBackend:
    """A persistent incremental solver behind the SolverBackend protocol.

    The underlying IPASIR solver object lives for the whole backend
    lifetime: clauses accumulate, assumptions are one-shot (exactly the
    protocol :class:`repro.encoding.formula.EncodedTest` expects), and the
    solver's learned clauses carry over between the solve/block iterations
    of the mining loops.
    """

    def __init__(self, library: IpasirLibrary | str | None = None) -> None:
        if library is None:
            found = find_ipasir_library()
            if found is None:
                raise IpasirError(
                    "no IPASIR shared library found (set "
                    f"{IPASIR_LIB_ENV} or install one of: "
                    + ", ".join(f"lib{b}.so" for b in _KNOWN_LIBRARIES)
                    + ")"
                )
            library = found
        if isinstance(library, str):
            library = load_ipasir_library(library)
        self._library = library
        self._handle = library.init()
        self.name = f"ipasir({library.signature()})"
        self._num_vars = 0
        self._unsat = False
        self._last_result: bool | None = None
        self._failed: list[int] = []
        self._solves = 0
        self._terminate_thunk = None

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
        add = self._library.add
        handle = self._handle
        count = 0
        num_vars = self._num_vars
        for lit in literals:
            if lit == 0:
                raise IpasirError("0 is not a valid literal")
            var = lit if lit > 0 else -lit
            if var > num_vars:
                num_vars = var
            add(handle, lit)
            count += 1
        add(handle, 0)
        self._num_vars = num_vars
        if count == 0:
            self._unsat = True
            return False
        return True

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        add = self._library.add
        handle = self._handle
        num_vars = self._num_vars
        ok = True
        for clause in clauses:
            count = 0
            for lit in clause:
                if lit == 0:
                    raise IpasirError("0 is not a valid literal")
                var = lit if lit > 0 else -lit
                if var > num_vars:
                    num_vars = var
                add(handle, lit)
                count += 1
            add(handle, 0)
            if count == 0:
                self._unsat = True
                ok = False
        self._num_vars = num_vars
        return ok

    def add_cnf(self, cnf: CNF, start: int = 0) -> bool:
        self.ensure_vars(cnf.num_vars)
        return self.add_clauses(cnf.clauses[start:])

    def freeze(self, variables: Iterable[int]) -> None:
        """No-op: IPASIR solvers manage frozen/melted state internally
        (assumption and value queries keep variables alive)."""

    # -------------------------------------------------------------- solving

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
    ) -> bool | None:
        # conflict_limit is a budget hint for the internal solver; IPASIR
        # solvers run to completion — unless a deadline is in scope, in
        # which case the optional ipasir_set_terminate hook aborts the
        # solve on expiry (libraries without the hook are still checked
        # between solves).
        self._failed = []
        self._last_result = None
        library = self._library
        handle = self._handle
        deadline = limits.active_deadline()
        terminate_installed = False
        if deadline is not None:
            deadline.check()
            if library.supports_terminate:
                def _should_stop(_data: object) -> int:
                    return 1 if (
                        deadline.expired() or deadline.memory_exceeded()
                    ) else 0
                # Keep the ctypes thunk alive for the duration of the
                # solve; the solver calls it from C.
                self._terminate_thunk = TERMINATE_CALLBACK(_should_stop)
                library.set_terminate(handle, self._terminate_thunk)
                terminate_installed = True
        try:
            for lit in assumptions:
                library.assume(handle, lit)
            result = library.solve(handle)
        finally:
            if terminate_installed:
                library.set_terminate(handle, None)
                self._terminate_thunk = None
        self._solves += 1
        if result == IPASIR_INTERRUPTED and deadline is not None:
            deadline.check()
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
