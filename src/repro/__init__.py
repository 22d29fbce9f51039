"""CheckFence reproduction: checking consistency of concurrent data types on
relaxed memory models (Burckhardt, Alur, Martin — PLDI 2007).

Quickstart::

    from repro import CheckSession, get_implementation, get_test

    session = CheckSession(get_implementation("msn-unfenced"))
    result = session.check(get_test("queue", "T0"), "relaxed")
    if result.failed:
        print(result.counterexample.format())

The package layers (docs/architecture.md has the full map):

* :mod:`repro.sat` — CDCL SAT solver, circuits, bit-vectors (zChaff stand-in)
* :mod:`repro.lang` — C-subset front-end (CIL stand-in)
* :mod:`repro.lsl` — the Load/Store Language IR and its serial interpreter
* :mod:`repro.analysis` — inlining, loop unrolling, range analysis
* :mod:`repro.memorymodel` — Seriality, SC, TSO, PSO, Relaxed
* :mod:`repro.encoding` — the propositional encoding of all executions
* :mod:`repro.core` — check sessions, specification mining, inclusion check,
  counterexamples
* :mod:`repro.datatypes` — ms2, msn, lazylist, harris, snark (+ variants)
* :mod:`repro.harness` — the Fig. 8 test catalog and Section 4 experiments
* :mod:`repro.litmus` — memory-model litmus tests (Fig. 2 and friends)
"""

from repro.core import CheckOptions, CheckResult, CheckSession
from repro.datatypes import available_implementations, get_implementation
from repro.harness import get_test, test_names
from repro.lsl import Invocation, SymbolicTest
from repro.memorymodel import (
    PSO,
    RELAXED,
    SEQUENTIAL_CONSISTENCY,
    SERIAL,
    TSO,
    available_models,
    get_model,
)

__version__ = "0.1.0"

__all__ = [
    "CheckOptions",
    "CheckResult",
    "CheckSession",
    "available_implementations",
    "get_implementation",
    "get_test",
    "test_names",
    "Invocation",
    "SymbolicTest",
    "PSO",
    "RELAXED",
    "SEQUENTIAL_CONSISTENCY",
    "SERIAL",
    "TSO",
    "available_models",
    "get_model",
    "__version__",
]
