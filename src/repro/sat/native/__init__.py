"""The native CDCL kernel (``cdcl.c``) and its ctypes binding.

The kernel is built on first use with the system C compiler (``cc``,
else ``gcc``, from ``PATH``) and cached as a shared library under
``CHECKFENCE_CACHE_DIR`` (default ``~/.cache/checkfence``), named by a
hash of the source and the compiler flags.  The build is written under a
temporary name and moved into place with :func:`os.replace`, so
concurrent worker processes may race to build it safely.  When the cache
directory is unwritable the library is built into a per-process
temporary directory instead.

:func:`load` locates, compiles and loads the library once per process and
returns None when that fails (no compiler, a compile error, a load error);
:func:`unavailable_reason` then says why, and the ``auto`` backend spec
falls back to the pure-Python kernel (see
:func:`repro.sat.backend.make_backend_factory`).

:class:`NativeSolver` has the surface of :class:`repro.sat.solver.Solver`
that :class:`repro.sat.backend.InternalBackend` uses, so the native
kernel runs behind the same backend class as the Python one.  No hot path
makes a ctypes call per literal or per variable: clause syncs pass
pointers into the :class:`repro.sat.cnf.CNF` literal buffers, and models,
cores and counters each come back in one call.

The library also exports the IPASIR interface, so
:class:`repro.sat.ipasir.IpasirBackend` can load it from
:func:`library_path`.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from array import array
from itertools import accumulate, chain
from pathlib import Path
from typing import Iterable, Sequence

from repro.core import limits
from repro.sat.solver import SolverError, SolverStats

SOURCE = Path(__file__).with_name("cdcl.c")
CFLAGS = ("-O2", "-shared", "-fPIC")

_SAT = 10
_UNSAT = 20

#: C type of the terminate callback (the IPASIR signature), and the
#: null callback that uninstalls it.
_TERMINATE = ctypes.CFUNCTYPE(ctypes.c_int, ctypes.c_void_p)
_NO_TERMINATE = _TERMINATE()


class NativeUnavailable(RuntimeError):
    """The native kernel could not be built or loaded."""


_library: ctypes.CDLL | None = None
_library_path: str | None = None
_failure: str | None = None
_attempted = False


def load() -> ctypes.CDLL | None:
    """The loaded kernel library, building it on the first call of the
    process; None when it cannot be built or loaded."""
    global _library, _library_path, _failure, _attempted
    if not _attempted:
        _attempted = True
        try:
            _library_path = _build()
            _library = _bind(ctypes.CDLL(_library_path))
        except Exception as exc:  # any failure means the Python kernel
            _library, _library_path, _failure = None, None, str(exc)
    return _library


def unavailable_reason() -> str | None:
    """Why :func:`load` returned None (None when it has not failed)."""
    return _failure


def library_path() -> str | None:
    """Path of the loaded shared library, for IPASIR clients."""
    load()
    return _library_path


def _build() -> str:
    """Path of a built library for the current source, compiling it into
    the cache directory when it is not there yet."""
    from repro.core.store import cache_dir

    compiler = shutil.which("cc") or shutil.which("gcc")
    source = SOURCE.read_bytes()
    digest = hashlib.sha256(source + " ".join(CFLAGS).encode()).hexdigest()
    name = f"libcfcdcl-{digest[:16]}.so"
    cached = cache_dir() / name
    if cached.is_file():
        return str(cached)
    if compiler is None:
        raise NativeUnavailable("no C compiler (cc or gcc) on PATH")
    try:
        cached.parent.mkdir(parents=True, exist_ok=True)
        fd, scratch = tempfile.mkstemp(
            prefix=f".{name}.", suffix=".tmp", dir=cached.parent
        )
        os.close(fd)
    except OSError:
        directory = tempfile.mkdtemp(prefix="checkfence-kernel-")
        atexit.register(shutil.rmtree, directory, True)
        cached = Path(directory) / name
        scratch = str(cached) + ".tmp"
    try:
        built = subprocess.run(
            [compiler, *CFLAGS, "-o", scratch, str(SOURCE)],
            capture_output=True, text=True,
        )
        if built.returncode != 0:
            raise NativeUnavailable(
                f"{compiler} failed on {SOURCE.name}: {built.stderr.strip()}"
            )
        os.replace(scratch, cached)
    finally:
        if os.path.exists(scratch):
            os.unlink(scratch)
    return str(cached)


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    handle = ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    signatures = {
        "cf_new": (handle, []),
        "cf_free": (None, [handle]),
        "cf_reserve": (None, [handle, ctypes.c_int]),
        "cf_add_clauses": (ctypes.c_int, [handle, ptr, ptr, i64, i64]),
        "cf_add_clause": (ctypes.c_int, [handle, ptr, ctypes.c_int]),
        "cf_solve": (ctypes.c_int, [handle, ptr, ctypes.c_int, i64]),
        "cf_model": (ctypes.c_int, [handle, ptr, ctypes.c_int]),
        "cf_failed": (ctypes.c_int, [handle, ptr, ctypes.c_int]),
        "cf_stats": (None, [handle, ptr]),
        "ipasir_set_terminate": (None, [handle, ptr, _TERMINATE]),
    }
    for symbol, (restype, argtypes) in signatures.items():
        function = getattr(lib, symbol)
        function.restype = restype
        function.argtypes = argtypes
    return lib


def _address(buffer: array) -> int:
    return buffer.buffer_info()[0]


def _check_added(code: int) -> bool:
    if code < 0:
        raise SolverError("0 is not a valid literal")
    return bool(code)


class NativeSolver:
    """The native kernel behind the :class:`repro.sat.solver.Solver`
    surface that :class:`repro.sat.backend.InternalBackend` calls."""

    def __init__(self, cnf=None) -> None:
        lib = load()
        if lib is None:
            raise NativeUnavailable(_failure or "native kernel unavailable")
        self._lib = lib
        self._handle = lib.cf_new()
        self._num_vars = 0
        self._last_result: bool | None = None
        self._last_assumptions = 0
        self._values: array | None = None
        if cnf is not None:
            self.add_cnf(cnf)

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        handle = getattr(self, "_handle", None)
        if handle:
            self._lib.cf_free(handle)
            self._handle = None

    @property
    def num_vars(self) -> int:
        return self._num_vars

    # --------------------------------------------------------- clauses

    def ensure_vars(self, num_vars: int) -> None:
        if num_vars > self._num_vars:
            self._num_vars = num_vars
            self._lib.cf_reserve(self._handle, num_vars)

    def add_clause(self, literals: Iterable[int]) -> bool:
        clause = array("i", literals)
        self._grow_to(clause)
        return _check_added(self._lib.cf_add_clause(
            self._handle, _address(clause), len(clause)
        ))

    def add_clauses_trusted(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Add a batch of clauses in one call (the kernel normalizes them
        anyway, so "trusted" only names the :class:`Solver` method)."""
        clauses = list(clauses)
        lits = array("i", chain.from_iterable(clauses))
        ends = array("q", accumulate(map(len, clauses)))
        self._grow_to(lits)
        return self._add_flat(lits, ends, 0, len(ends))

    def add_cnf(self, cnf, start: int = 0) -> bool:
        """Add clauses ``start`` onwards of a :class:`repro.sat.cnf.CNF`,
        read by the kernel straight out of its flat buffers."""
        if not 0 <= start <= len(cnf):
            raise ValueError(f"clause index {start} outside 0..{len(cnf)}")
        self.ensure_vars(cnf.num_vars)
        return self._add_flat(cnf._lits, cnf._ends, start, len(cnf) - start)

    def _add_flat(self, lits: array, ends: array, first: int, count: int):
        if count <= 0:
            return True
        return _check_added(self._lib.cf_add_clauses(
            self._handle, _address(lits), _address(ends), first, count
        ))

    def _grow_to(self, lits: array) -> None:
        if lits:
            self.ensure_vars(max(max(lits), -min(lits)))

    # ----------------------------------------------------------- solve

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
    ) -> bool | None:
        """True (SAT), False (UNSAT), or None when ``conflict_limit`` ran
        out.

        The kernel calls back into Python every 64 conflicts and every
        4096 decisions, as often as the Python kernel polls its deadline:
        a deadline breach raises from here, leaving the solver reusable,
        and so does Ctrl-C (the pending signal is raised in the callback).
        """
        self._last_result = None
        self._values = None
        assumed = array("i", assumptions)
        self._grow_to(assumed)
        self._last_assumptions = len(assumed)
        deadline = limits.active_deadline()
        if deadline is not None:
            deadline.check()
        stop: list[BaseException] = []

        def should_stop(_data) -> int:
            try:
                return int(bool(stop) or deadline is not None and (
                    deadline.expired() or deadline.memory_exceeded()
                ))
            except BaseException as exc:
                stop.append(exc)
                return 1

        def keep_exception(unraisable) -> None:
            # An exception ctypes could not return from the callback (such
            # as Ctrl-C, raised on entry) is kept and stops the search at
            # the next poll, to be re-raised once the C call has returned.
            # Swapping the process-wide hook assumes one solving thread,
            # which is how the checker runs.
            if unraisable.object is should_stop:
                stop.append(unraisable.exc_value)
            else:
                previous_hook(unraisable)

        lib, handle = self._lib, self._handle
        poll = _TERMINATE(should_stop)  # must outlive the C call
        previous_hook, sys.unraisablehook = sys.unraisablehook, keep_exception
        lib.ipasir_set_terminate(handle, None, poll)
        try:
            result = lib.cf_solve(
                handle, _address(assumed), len(assumed),
                -1 if conflict_limit is None else conflict_limit,
            )
        finally:
            lib.ipasir_set_terminate(handle, None, _NO_TERMINATE)
            sys.unraisablehook = previous_hook
        if stop:
            raise stop[0]
        if result < 0:
            raise SolverError("0 is not a valid assumption literal")
        if result == _SAT:
            self._last_result = True
        elif result == _UNSAT:
            self._last_result = False
        elif deadline is not None:
            deadline.check()
        return self._last_result

    def failed_assumptions(self) -> list[int]:
        if self._last_result is not False or not self._last_assumptions:
            return []
        core = array("i", bytes(4 * self._last_assumptions))
        count = self._lib.cf_failed(
            self._handle, _address(core), len(core)
        )
        return core[:count].tolist()

    # ---------------------------------------------------------- models

    def _snapshot(self) -> array | None:
        if not self._last_result:
            return None
        if self._values is None:
            values = array("b", bytes(self._num_vars + 1))
            self._lib.cf_model(self._handle, _address(values), self._num_vars)
            self._values = values
        return self._values

    def model(self) -> dict[int, bool]:
        values = self._snapshot()
        if values is None:
            return {}
        return {var: values[var] == 1 for var in range(1, len(values))}

    def values_of(self, variables: Iterable[int]) -> dict[int, bool]:
        values = self._snapshot()
        if values is None:
            return {}
        bound = len(values)
        return {
            var: (values[var] == 1) if 0 < var < bound else False
            for var in variables
        }

    @property
    def total_stats(self) -> SolverStats:
        counters = array("q", bytes(8 * 7))
        self._lib.cf_stats(self._handle, _address(counters))
        return SolverStats(*counters)
