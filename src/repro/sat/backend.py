"""Pluggable SAT solver backends.

The checker never talks to a solver kernel directly; it goes through the
:class:`SolverBackend` protocol, which captures the small solving surface
the pipeline needs (grow variables, add clauses, solve under assumptions,
read the model and statistics).  :class:`InternalBackend` wraps an
in-tree incremental CDCL kernel: the native C kernel
(:class:`repro.sat.native.NativeSolver`) or the pure-Python one
(:class:`repro.sat.solver.Solver`).  The IPASIR backend of
:mod:`repro.sat.ipasir` keeps an external solver library warm across
calls.

Backend choice is a string *spec* threaded through
:class:`repro.core.checker.CheckOptions`, the CLI (``--solver``) and the
``CHECKFENCE_SOLVER`` environment variable:

* ``auto`` — the native kernel, built on first use
  (:mod:`repro.sat.native`); the pure-Python kernel when it cannot be
  built or loaded (:func:`repro.sat.native.unavailable_reason` says why);
* ``internal`` — the pure-Python kernel;
* ``ipasir:<path>`` — a persistent incremental external solver loaded
  from an IPASIR shared library (:mod:`repro.sat.ipasir`); the path may
  be a loader soname such as ``libcadical.so``.

:func:`make_backend_factory` turns a spec into a factory of fresh backend
*stacks*: it alone decides whether the CNF preprocessor
(:class:`repro.sat.simplify.SimplifyingBackend`) wraps the chosen backend
(``CHECKFENCE_SIMPLIFY``), so that decision is made once, where the
factory is built, and every layer below only ever receives the factory.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

from repro.core import faults, limits
from repro.sat.cnf import CNF
from repro.sat.simplify import SimplifyingBackend
from repro.sat.solver import Solver, SolverStats

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

    def freeze(self, variables: Iterable[int]) -> None: ...

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
    ) -> bool | None: ...

    def failed_assumptions(self) -> list[int]:
        """Subset of the last solve's assumptions already unsatisfiable
        together with the formula.  Uniform contract across backends:
        non-empty only when the most recent :meth:`solve` returned
        ``False`` — after a SAT or UNKNOWN result, or before any solve,
        this is ``[]`` (core-guided searches rely on that to distinguish
        "no core" from a stale one)."""
        ...

    def model(self) -> dict[int, bool]: ...

    def values_of(self, variables: Iterable[int]) -> dict[int, bool]: ...

    def stats(self) -> SolverStats | None: ...


class InternalBackend:
    """An in-tree incremental CDCL kernel behind the backend protocol: the
    pure-Python :class:`repro.sat.solver.Solver` by default, or any object
    with its surface (the native kernel's binding)."""

    name = "internal"

    def __init__(self, solver: Solver | None = None, name: str = "") -> None:
        self.solver = solver if solver is not None else Solver()
        if name:
            self.name = name

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

    def freeze(self, variables: Iterable[int]) -> None:
        """No-op: the plain solver never removes variables.  Preprocessing
        backends (:class:`repro.sat.simplify.SimplifyingBackend`) use the
        frozen set to protect variables the caller will mention again."""

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
    ) -> bool | None:
        return self.solver.solve(
            assumptions=assumptions, conflict_limit=conflict_limit
        )

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

    Each produced stack is, innermost first: the kernel ``spec`` names;
    the counting proxy of the ``solver-raise`` fault
    (:mod:`repro.core.faults`) when that fault is armed, so the hot path
    pays nothing otherwise; and the CNF preprocessor.  By default the
    preprocessor sits over the pure-Python kernel only, the one kernel it
    pays for, at its measured engagement thresholds.  When
    ``CHECKFENCE_SIMPLIFY`` is set to anything but ``0`` it sits over any
    kernel and engages on every formula: the escape hatch for formulas the
    native kernel finds hard, and the differential lanes.

    The spec is checked here (a ValueError names the valid ones); the
    kernel is resolved (and the native one built) only when the first
    stack is made.
    """
    return BackendStackFactory(spec)


class BackendStackFactory:
    """A callable that builds fresh backend stacks for one spec (see
    :func:`make_backend_factory`)."""

    def __init__(self, spec: str | None) -> None:
        self._spec = _parse_spec(spec)
        self._forced = limits.env_flag("CHECKFENCE_SIMPLIFY")
        self._inject_faults = bool(faults.solver_raise_counts())
        self._kernel: tuple[BackendFactory, bool] | None = None

    def _resolve(self) -> tuple[BackendFactory, bool]:
        """(backend constructor, whether its kernel is the Python one)."""
        if self._kernel is None:
            self._kernel = _resolve_kernel(*self._spec)
        return self._kernel

    @property
    def fallback_reason(self) -> str | None:
        """Why ``auto`` fell back to the pure-Python kernel (None when it
        did not, or for any other spec)."""
        if self._spec[0] != "auto" or not self._resolve()[1]:
            return None
        from repro.sat import native

        return (
            f"native kernel unavailable ({native.unavailable_reason()}); "
            "solving with simplify+internal"
        )

    @property
    def preprocess(self) -> bool:
        """Whether the stacks include the CNF preprocessor (resolves the
        kernel unless ``CHECKFENCE_SIMPLIFY`` forces it)."""
        return self._forced or self._resolve()[1]

    @property
    def stack(self) -> tuple:
        """What the stacks are: the parsed spec, whether its kernel
        resolved to the pure-Python one, and whether
        ``CHECKFENCE_SIMPLIFY`` forces the preprocessor in (the last two
        say whether, and at which thresholds, it is in the stack;
        resolves the kernel)."""
        return (*self._spec, self._resolve()[1], self._forced)

    def __call__(self) -> SolverBackend:
        make, python_kernel = self._resolve()
        backend = make()
        if self._inject_faults:
            backend = faults.FaultySolverProxy(backend)
        if self._forced:
            backend = SimplifyingBackend(backend, min_clauses=0)
        elif python_kernel:
            backend = SimplifyingBackend(backend)
        return backend


def _parse_spec(spec: str | None) -> tuple[str, str]:
    """(kind, library path) of a backend spec; raises ValueError naming the
    valid specs when it is not one of them."""
    spec = (spec if spec is not None else default_backend_spec()).strip()
    if spec in ("", "auto", "internal"):
        return spec or "auto", ""
    kind, _, library = spec.partition(":")
    if kind == "ipasir" and library.strip():
        return kind, library.strip()
    raise ValueError(
        f"unknown solver backend spec {spec!r} "
        "(expected auto, internal, or ipasir:<path-to-shared-library>)"
    )


def _resolve_kernel(kind: str, library: str) -> tuple[BackendFactory, bool]:
    if kind == "auto":
        # Imported lazily, like repro.sat.ipasir below: only this spec
        # needs the kernel's build and load machinery.
        from repro.sat import native

        if native.load() is not None:
            return (
                lambda: InternalBackend(native.NativeSolver(), "native"),
                False,
            )
        return InternalBackend, True
    if kind == "internal":
        return InternalBackend, True
    from repro.sat import ipasir

    return lambda: ipasir.IpasirBackend(library), False
