"""SAT solving substrate (stands in for the zChaff solver used by the paper).

Public surface:

* :class:`repro.sat.cnf.CNF` — clause database.
* :mod:`repro.sat.native` — the CDCL kernel, in C, built with the system
  compiler on first use and driven through ctypes; every check needs it.
* :mod:`repro.sat.solver` — the records every backend shares
  (:class:`repro.sat.solver.SolverStats`,
  :class:`repro.sat.solver.SolverError`).
* :class:`repro.sat.backend.SolverBackend` — pluggable solving backends
  (:class:`repro.sat.backend.InternalBackend` over the native kernel, the
  IPASIR backend of :mod:`repro.sat.ipasir`) plus the backend-stack
  factory :func:`repro.sat.backend.make_backend_factory`, the one place
  a solver stack is chosen.
* :class:`repro.sat.circuit.Circuit` — the gate builder (AND, XOR and
  if-then-else gates, one variable each): every handle is a literal of
  its own CNF, and each gate's Tseitin clauses are written when the gate
  is built, one at a time or, for a skeleton's shared equality terms, in
  one native batch (:meth:`repro.sat.circuit.Circuit.build_terms`).
* :class:`repro.sat.bitvec.BitVecBuilder` — fixed-width bit-vector terms.

No stack preprocesses the CNF: :mod:`repro.sat.simplify` is an empty
stub the traced benchmark wraps, and nothing calls it.
"""

from repro.sat.cnf import CNF
from repro.sat.solver import SolverStats
from repro.sat.backend import (
    BackendFactory,
    InternalBackend,
    SolverBackend,
    default_backend_spec,
    make_backend_factory,
)
from repro.sat.circuit import Circuit
from repro.sat.bitvec import BitVec, BitVecBuilder, width_for

__all__ = [
    "CNF",
    "SolverStats",
    "BackendFactory",
    "InternalBackend",
    "SolverBackend",
    "default_backend_spec",
    "make_backend_factory",
    "Circuit",
    "BitVec",
    "BitVecBuilder",
    "width_for",
]
