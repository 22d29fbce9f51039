"""Pluggable SAT solver backends.

The checker never talks to :class:`repro.sat.solver.Solver` directly any
more; it goes through the :class:`SolverBackend` protocol, which captures
the small solving surface the pipeline needs (grow variables, add clauses,
solve under assumptions, read the model and statistics).
:class:`InternalBackend` wraps the in-tree incremental CDCL solver; the
IPASIR backends of :mod:`repro.sat.ipasir` keep an external solver warm
across calls.

Backend choice is a string *spec* threaded through
:class:`repro.core.checker.CheckOptions`, the CLI (``--solver``) and the
``CHECKFENCE_SOLVER`` environment variable:

* ``auto`` / ``internal`` — the internal CDCL solver (deterministic default);
* ``ipasir`` — a persistent incremental external solver loaded as an
  IPASIR shared library (:mod:`repro.sat.ipasir`), auto-discovered via
  ``CHECKFENCE_IPASIR_LIB`` / known sonames, internal fallback when none
  is installed;
* ``ipasir:cli`` — the in-tree solver behind a persistent incremental
  subprocess pipe (``python -m repro.sat.dimacs_cli --incremental``);
* ``ipasir:<path>`` — a specific IPASIR shared library file.

:func:`make_backend_factory` turns a spec into a factory of fresh backend
*stacks*: it also decides whether the CNF preprocessor
(:class:`repro.sat.simplify.SimplifyingBackend`) wraps the chosen backend,
so that decision is made once, where the factory is built, and every
layer below only ever receives the factory.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, Protocol, Sequence, runtime_checkable

from repro.core import faults
from repro.sat.cnf import CNF
from repro.sat.simplify import SimplifyingBackend, simplify_enabled
from repro.sat.solver import Solver, SolverStats

BackendFactory = Callable[[], "SolverBackend"]

@runtime_checkable
class SolverBackend(Protocol):
    """The solving surface the checking pipeline relies on."""

    name: str

    def ensure_vars(self, num_vars: int) -> None: ...

    def add_clause(self, literals: Iterable[int]) -> bool: ...

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool: ...

    def add_cnf(self, cnf: CNF) -> None: ...

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
    """The in-tree incremental CDCL solver behind the backend protocol."""

    name = "internal"

    def __init__(self, solver: Solver | None = None) -> None:
        self.solver = solver if solver is not None else Solver()

    def ensure_vars(self, num_vars: int) -> None:
        self.solver.ensure_vars(num_vars)

    def add_clause(self, literals: Iterable[int]) -> bool:
        return self.solver.add_clause(literals)

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Bulk-add pre-normalized clauses (no duplicate literals or
        tautologies), e.g. straight from a :class:`CNF` database."""
        return self.solver.add_clauses_trusted(clauses)

    def add_cnf(self, cnf: CNF) -> None:
        self.solver.add_cnf(cnf)

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


def make_backend_factory(
    spec: str | None = None, simplify: bool | None = None
) -> BackendFactory:
    """Turn a backend spec string into a factory of fresh backend stacks.

    Each produced stack is, innermost first: the backend ``spec`` names;
    the counting proxy of the ``solver-raise`` fault
    (:mod:`repro.core.faults`) when that fault is armed, so the hot path
    pays nothing otherwise; and the CNF preprocessor unless ``simplify``
    resolves off (``None`` defers to ``CHECKFENCE_SIMPLIFY``, see
    :func:`repro.sat.simplify.simplify_enabled`).
    """
    resolve = _resolve_backend_factory(spec)
    inject_faults = bool(faults.solver_raise_counts())
    preprocess = simplify_enabled(simplify)

    def factory() -> SolverBackend:
        backend = resolve()
        if inject_faults:
            backend = faults.FaultySolverProxy(backend)
        if preprocess:
            backend = SimplifyingBackend(backend)
        return backend

    return factory


def _resolve_backend_factory(spec: str | None = None) -> BackendFactory:
    spec = spec if spec is not None else default_backend_spec()
    spec = spec.strip()
    if spec in ("", "auto", "internal"):
        return InternalBackend
    if spec == "ipasir" or spec.startswith("ipasir:"):
        # Imported lazily: repro.sat.ipasir imports from this module's
        # sibling (solver stats) and is only needed for these specs.
        from repro.sat import ipasir as ipasir_module

        if spec == "ipasir":
            def factory() -> SolverBackend:
                library = ipasir_module.find_ipasir_library()
                if library is None:
                    backend = InternalBackend()
                    backend.name = "ipasir(fallback:internal)"
                    return backend
                return ipasir_module.IpasirBackend(library)
            return factory
        argument = spec[len("ipasir:"):].strip()
        if not argument:
            raise ValueError(f"empty IPASIR library path in spec {spec!r}")
        if argument == "cli":
            return ipasir_module.IncrementalPipeBackend
        return lambda: ipasir_module.IpasirBackend(argument)
    raise ValueError(
        f"unknown solver backend spec {spec!r} "
        "(expected auto, internal, ipasir, ipasir:cli, or ipasir:<path>)"
    )
