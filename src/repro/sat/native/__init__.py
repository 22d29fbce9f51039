"""The native CDCL kernel (``cdcl.c``), the memory-order builder
(``order.c``) and their ctypes binding.

Both sources are built into one shared library on first use with the
system C compiler (``cc``, else ``gcc``, from ``PATH``) and cached under
``CHECKFENCE_CACHE_DIR`` (default ``~/.cache/checkfence``), named by a
hash of every source and the compiler flags.  The build is written under a
temporary name and moved into place with :func:`os.replace`, so
concurrent worker processes may race to build it safely.  When the cache
directory is unwritable the library is built into a per-process
temporary directory instead.

The library is required: every check encodes through :func:`build_order`
and solves on :class:`NativeSolver` (or an IPASIR library).  :func:`load`
locates, compiles and loads it once per process and raises
:class:`NativeUnavailable` with the reason when that fails (no compiler, a
compile error with the compiler's output, or a load error); the failure is
cached, so every later call raises the same reason.

:class:`NativeSolver` is the kernel behind
:class:`repro.sat.backend.InternalBackend`.  No hot path makes a ctypes
call per literal or per variable: clause syncs pass pointers into the
:class:`repro.sat.cnf.CNF` literal buffers, and models, cores and
counters each come back in one call.

The library also exports the IPASIR interface, so
:class:`repro.sat.ipasir.IpasirBackend` can load it from
:func:`library_path`.

:func:`build_order` runs ``order.c``: the live order pairs and the
transitivity clauses of one per-model encoding layer.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from functools import partial
from itertools import accumulate, chain
from pathlib import Path
from typing import Iterable, Sequence

from repro.sat.ipasir import TERMINATE_CALLBACK, solve_polled
from repro.sat.solver import SolverError, SolverStats

SOURCE = Path(__file__).with_name("cdcl.c")
#: The memory-order builder, compiled into the same library as the kernel.
ORDER_SOURCE = Path(__file__).with_name("order.c")
CFLAGS = ("-O2", "-shared", "-fPIC")

_SAT = 10
_UNSAT = 20
_ORDER_BAD_INPUT = -2


class NativeUnavailable(RuntimeError):
    """The native kernel could not be built or loaded."""


_library: ctypes.CDLL | None = None
_library_path: str | None = None
#: Why the library could not be built or loaded (None until it fails).
_failure: str | None = None


def load() -> ctypes.CDLL:
    """The loaded kernel library, building it on the first call of the
    process; raises :class:`NativeUnavailable` with the reason when it
    cannot be built or loaded (and again on every later call)."""
    global _library, _library_path, _failure
    if _library is None and _failure is None:
        path = None
        try:
            path = _build()
            _library = _bind(ctypes.CDLL(path))
            _library_path = path
        except NativeUnavailable as exc:  # no compiler, or a compile error
            _failure = str(exc)
        except Exception as exc:
            where = f"cannot load {path}" if path else "build failed"
            _failure = f"{where}: {exc}"
    if _library is None:
        raise NativeUnavailable(_failure)
    return _library


def library_path() -> str:
    """Path of the loaded shared library, for IPASIR clients."""
    load()
    return _library_path


def _build() -> str:
    """Path of a built library for the current source, compiling it into
    the cache directory when it is not there yet."""
    from repro.core.store import cache_dir

    compiler = shutil.which("cc") or shutil.which("gcc")
    sources = (SOURCE, ORDER_SOURCE)
    digest = hashlib.sha256(" ".join(CFLAGS).encode())
    for source in sources:
        text = source.read_bytes()
        digest.update(b"%s %d\n" % (source.name.encode(), len(text)) + text)
    name = f"libcfcdcl-{digest.hexdigest()[:16]}.so"
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
            [compiler, *CFLAGS, "-o", scratch, *map(str, sources)],
            capture_output=True, text=True,
        )
        if built.returncode != 0:
            names = " + ".join(source.name for source in sources)
            raise NativeUnavailable(
                f"{compiler} failed on {names}: {built.stderr.strip()}"
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
        "cf_solve": (ctypes.c_int, [handle, ptr, ctypes.c_int]),
        "cf_model": (ctypes.c_int, [handle, ptr, ctypes.c_int]),
        "cf_failed": (ctypes.c_int, [handle, ptr, ctypes.c_int]),
        "cf_stats": (None, [handle, ptr]),
        "ipasir_set_terminate": (None, [handle, ptr, TERMINATE_CALLBACK]),
        "cf_order_build": (handle, [
            ctypes.c_int32, ctypes.c_char_p, ctypes.c_char_p, ptr, i64,
            ctypes.c_int32, ptr,
        ]),
        "cf_order_copy": (None, [handle, ptr, ptr, ptr]),
        "cf_order_free": (None, [handle]),
    }
    for symbol, (restype, argtypes) in signatures.items():
        function = getattr(lib, symbol)
        function.restype = restype
        function.argtypes = argtypes
    return lib


def _address(buffer: array) -> int:
    return buffer.buffer_info()[0]


def build_order(
    n: int,
    reach: Sequence[int],
    allowed: int,
    seeds: Iterable[tuple[int, int]],
    first_var: int,
) -> tuple[array, array, array]:
    """:func:`repro.encoding.memory.build_order` in ``order.c``: the same
    inputs, and the same pairs, literals and lengths as arrays.

    The reach rows and the vertex mask go in as little-endian 64-bit
    words (one ``bytes`` each, read in place), the seeds as one ``array``;
    the results come back in ``array`` buffers the library fills by
    address.  Raises :class:`MemoryError` when the library runs out of
    memory and :class:`ValueError` on a seed outside ``0 <= i < j < n``,
    a statically ordered seed, or a variable number past 32 bits.
    """
    lib = load()
    if len(reach) != n:
        raise ValueError(f"{len(reach)} reach rows for {n} accesses")
    if not 0 < first_var < 2**31:
        raise ValueError(f"first variable {first_var} outside 1..2**31-1")
    width = 8 * ((n + 63) // 64)
    full = (1 << n) - 1
    rows = b"".join([(row & full).to_bytes(width, "little") for row in reach])
    mask = (allowed & full).to_bytes(width, "little")
    flat = array("i", chain.from_iterable(seeds))
    sizes = array("q", bytes(32))
    build = lib.cf_order_build(
        n, rows, mask, _address(flat), len(flat) // 2, first_var,
        _address(sizes),
    )
    if not build:
        if sizes[0] == _ORDER_BAD_INPUT:
            raise ValueError(
                "seed pair out of range or statically ordered, or variable "
                f"numbers from {first_var} past 32 bits"
            )
        raise MemoryError("memory-order builder: out of memory")
    try:
        pairs = array("i", bytes(8 * sizes[1]))
        literals = array("i", bytes(4 * sizes[2]))
        lengths = array("b", bytes(sizes[3]))
        lib.cf_order_copy(
            build, _address(pairs), _address(literals), _address(lengths)
        )
    finally:
        lib.cf_order_free(build)
    return pairs, literals, lengths


def _check_added(code: int) -> bool:
    if code < 0:
        raise SolverError("0 is not a valid literal")
    return bool(code)


class NativeSolver:
    """The native kernel, as :class:`repro.sat.backend.InternalBackend`
    calls it."""

    def __init__(self, cnf=None) -> None:
        lib = load()
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
        anyway: "trusted" is the backend's name for pre-normalized
        clauses)."""
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

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """True (SAT) or False (UNSAT).

        The kernel calls back into Python every 64 conflicts and every
        4096 decisions to poll the deadline and Ctrl-C: a deadline breach
        raises from here, leaving the solver reusable, and so does Ctrl-C
        (the pending signal is raised in the callback).  Any other status
        raises :class:`SolverError`.
        """
        self._last_result = None
        self._values = None
        assumed = array("i", assumptions)
        self._grow_to(assumed)
        self._last_assumptions = len(assumed)
        lib, handle = self._lib, self._handle
        result = solve_polled(
            partial(lib.ipasir_set_terminate, handle, None),
            partial(lib.cf_solve, handle, _address(assumed), len(assumed)),
        )
        if result < 0:
            raise SolverError("0 is not a valid assumption literal")
        if result not in (_SAT, _UNSAT):
            raise SolverError(
                f"kernel returned unexpected solve status {result}"
            )
        self._last_result = result == _SAT
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
