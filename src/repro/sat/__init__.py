"""SAT solving substrate (stands in for the zChaff solver used by the paper).

Public surface:

* :class:`repro.sat.cnf.CNF` — clause database.
* :class:`repro.sat.solver.Solver` — incremental CDCL solver.
* :class:`repro.sat.backend.SolverBackend` — pluggable solving backends
  (:class:`repro.sat.backend.InternalBackend`, the IPASIR backends of
  :mod:`repro.sat.ipasir`) plus the backend-stack factory
  :func:`repro.sat.backend.make_backend_factory`.
* :class:`repro.sat.circuit.Circuit` / :class:`repro.sat.circuit.CnfLowering`
  — boolean circuits with Tseitin conversion.
* :mod:`repro.sat.simplify` — in-process SatELite-style CNF preprocessing
  (:class:`repro.sat.simplify.SimplifyingBackend`) between lowering and
  solving, with model reconstruction and a frozen-variable contract.
* :class:`repro.sat.bitvec.BitVecBuilder` — fixed-width bit-vector terms.
* :mod:`repro.sat.dimacs` — DIMACS import/export (and
  :mod:`repro.sat.dimacs_cli`, a competition-style CLI around the internal
  solver).
"""

from repro.sat.cnf import CNF
from repro.sat.solver import Solver, SolverStats, solve_cnf
from repro.sat.backend import (
    BackendFactory,
    InternalBackend,
    SolverBackend,
    default_backend_spec,
    make_backend_factory,
)
from repro.sat.circuit import Circuit, CnfLowering
from repro.sat.bitvec import BitVec, BitVecBuilder, width_for
from repro.sat.dimacs import read_dimacs, write_dimacs
from repro.sat.simplify import (
    Simplifier,
    SimplifyingBackend,
    SimplifyStats,
    simplify_cnf,
    simplify_enabled,
    simplify_min_clauses,
)

__all__ = [
    "CNF",
    "Solver",
    "SolverStats",
    "solve_cnf",
    "BackendFactory",
    "InternalBackend",
    "SolverBackend",
    "default_backend_spec",
    "make_backend_factory",
    "Circuit",
    "CnfLowering",
    "BitVec",
    "BitVecBuilder",
    "width_for",
    "read_dimacs",
    "write_dimacs",
    "Simplifier",
    "SimplifyingBackend",
    "SimplifyStats",
    "simplify_cnf",
    "simplify_enabled",
    "simplify_min_clauses",
]
