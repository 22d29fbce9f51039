"""SAT solving substrate (stands in for the zChaff solver used by the paper).

Public surface:

* :class:`repro.sat.cnf.CNF` — clause database.
* :mod:`repro.sat.native` — the default CDCL kernel, in C, built with the
  system compiler on first use and driven through ctypes.
* :class:`repro.sat.solver.Solver` — the pure-Python incremental CDCL
  kernel, the fallback when the native one cannot be built.
* :class:`repro.sat.backend.SolverBackend` — pluggable solving backends
  (:class:`repro.sat.backend.InternalBackend` over either kernel, the
  IPASIR backend of :mod:`repro.sat.ipasir`) plus the backend-stack
  factory :func:`repro.sat.backend.make_backend_factory`, the one place
  a solver stack is chosen.
* :class:`repro.sat.circuit.Circuit` / :class:`repro.sat.circuit.CnfLowering`
  — boolean circuits with Tseitin conversion.
* :mod:`repro.sat.simplify` — in-process SatELite-style CNF preprocessing
  (:class:`repro.sat.simplify.SimplifyingBackend`) between lowering and
  solving, with model reconstruction and a frozen-variable contract.
* :class:`repro.sat.bitvec.BitVecBuilder` — fixed-width bit-vector terms.
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
from repro.sat.simplify import (
    Simplifier,
    SimplifyingBackend,
    SimplifyStats,
    simplify_cnf,
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
    "Simplifier",
    "SimplifyingBackend",
    "SimplifyStats",
    "simplify_cnf",
]
