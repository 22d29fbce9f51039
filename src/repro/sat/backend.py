"""Pluggable SAT solver backends.

The checker never talks to a solver kernel directly; it goes through the
:class:`SolverBackend` protocol, which captures the small solving surface
the pipeline needs (grow variables, add clauses, solve under assumptions,
read the model and statistics).  :class:`InternalBackend` wraps the
in-tree incremental CDCL kernel (:class:`repro.sat.native.NativeSolver`).
The IPASIR backend of :mod:`repro.sat.ipasir` keeps an external solver
library warm across calls.

Backend choice is a string *spec* threaded through
:class:`repro.core.checker.CheckOptions`, the CLI (``--solver``) and the
``CHECKFENCE_SOLVER`` environment variable:

* ``auto`` — the native kernel, built on first use
  (:mod:`repro.sat.native`; :class:`repro.sat.native.NativeUnavailable`
  says why when it cannot be built or loaded);
* ``ipasir:<path>`` — a persistent incremental external solver loaded
  from an IPASIR shared library (:mod:`repro.sat.ipasir`); the path may
  be a loader soname such as ``libcadical.so``.

:func:`make_backend_factory` turns a spec into a factory of fresh
backends, so the spec is resolved once, where the factory is built, and
every layer below only ever receives the factory.

A solve answers SAT (``True``) or UNSAT (``False``) and nothing else.
A search that a budget stops raises the budget's
:class:`repro.core.limits.LimitExceeded`, and any other status the
kernel reports raises, so an unfinished search is never read as a
verdict.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

from repro.core import faults
from repro.sat.cnf import CNF
from repro.sat.solver import SolverStats

BackendFactory = Callable[[], "SolverBackend"]

@runtime_checkable
class SolverBackend(Protocol):
    """The solving surface the checking pipeline relies on."""

    name: str

    def ensure_vars(self, num_vars: int) -> None: ...

    def add_clause(self, literals: Iterable[int]) -> bool: ...

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool: ...

    def add_cnf(self, cnf: CNF, start: int = 0) -> bool:
        """Add clauses ``start`` through ``len(cnf) - 1`` of ``cnf``."""
        ...

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        """True (SAT) or False (UNSAT).  A budget that stops the search
        raises its :class:`repro.core.limits.LimitExceeded`."""
        ...

    def failed_assumptions(self) -> list[int]:
        """Subset of the last solve's assumptions already unsatisfiable
        together with the formula.  Uniform contract across backends:
        non-empty only when the most recent :meth:`solve` returned
        ``False`` — after a SAT result, a solve that raised, or before
        any solve, this is ``[]`` (core-guided searches rely on that to
        distinguish "no core" from a stale one)."""
        ...

    def model(self) -> dict[int, bool]: ...

    def values_of(self, variables: Iterable[int]) -> dict[int, bool]: ...

    def stats(self) -> SolverStats | None: ...


class InternalBackend:
    """The in-tree incremental CDCL kernel behind the backend protocol:
    a :class:`repro.sat.native.NativeSolver` (the library loads on the
    first one)."""

    name = "native"

    def __init__(self) -> None:
        # Imported here: the binding pulls in ctypes and the build
        # machinery, which no import of the pipeline needs to pay for.
        from repro.sat import native

        self.solver = native.NativeSolver()

    def ensure_vars(self, num_vars: int) -> None:
        self.solver.ensure_vars(num_vars)

    def add_clause(self, literals: Iterable[int]) -> bool:
        return self.solver.add_clause(literals)

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Bulk-add pre-normalized clauses (no duplicate literals or
        tautologies), e.g. straight from a :class:`CNF` database."""
        return self.solver.add_clauses_trusted(clauses)

    def add_cnf(self, cnf: CNF, start: int = 0) -> bool:
        return self.solver.add_cnf(cnf, start)

    def solve(self, assumptions: Sequence[int] = ()) -> bool:
        return self.solver.solve(assumptions)

    def failed_assumptions(self) -> list[int]:
        """Subset of the last solve's assumptions that is already
        unsatisfiable together with the formula; empty when the formula
        alone is unsatisfiable or the last result was SAT."""
        return self.solver.failed_assumptions()

    def model(self) -> dict[int, bool]:
        return self.solver.model()

    def values_of(self, variables: Iterable[int]) -> dict[int, bool]:
        return self.solver.values_of(variables)

    def stats(self) -> SolverStats:
        return self.solver.total_stats


# ----------------------------------------------------------- spec resolution


def default_backend_spec() -> str:
    """The backend spec used when none is given (``CHECKFENCE_SOLVER``)."""
    return os.environ.get("CHECKFENCE_SOLVER", "auto")


def make_backend_factory(spec: str | None = None) -> "BackendStackFactory":
    """Turn a backend spec string into a factory of fresh backend stacks.

    Each produced stack is the backend ``spec`` names, inside the
    counting proxy of the ``solver-raise`` fault
    (:mod:`repro.core.faults`) when that fault is armed, so the hot path
    pays nothing otherwise.

    The spec is checked here (a ValueError names the valid ones); the
    native library is loaded only when the first stack is made.
    """
    return BackendStackFactory(spec)


class BackendStackFactory:
    """A callable that builds fresh backend stacks for one spec (see
    :func:`make_backend_factory`)."""

    def __init__(self, spec: str | None) -> None:
        self._spec = _parse_spec(spec)
        self._inject_faults = bool(faults.solver_raise_counts())

    @property
    def stack(self) -> tuple:
        """What the stacks are: the parsed spec (kind, library path)."""
        return self._spec

    def __call__(self) -> SolverBackend:
        kind, library = self._spec
        if kind == "auto":
            backend = InternalBackend()
        else:
            # Imported lazily, like the native binding: only this spec
            # needs the IPASIR loader.
            from repro.sat import ipasir

            backend = ipasir.IpasirBackend(library)
        if self._inject_faults:
            backend = faults.FaultySolverProxy(backend)
        return backend


def _parse_spec(spec: str | None) -> tuple[str, str]:
    """(kind, library path) of a backend spec; raises ValueError naming the
    valid specs when it is not one of them."""
    spec = (spec if spec is not None else default_backend_spec()).strip()
    if spec in ("", "auto"):
        return "auto", ""
    kind, _, library = spec.partition(":")
    if kind == "ipasir" and library.strip():
        return kind, library.strip()
    raise ValueError(
        f"unknown solver backend spec {spec!r} "
        "(expected auto or ipasir:<path-to-shared-library>)"
    )
