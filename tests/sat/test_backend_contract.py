"""Shared conformance suite for every SolverBackend implementation.

Each backend family — the native CDCL kernel behind ``InternalBackend``
and an IPASIR shared library (the native kernel's own IPASIR exports,
loaded through ``IpasirBackend``) — must satisfy the same observable
contract: solving under temporary assumptions,
failed-assumption cores after UNSAT, incremental clause addition after
both SAT and UNSAT verdicts, ``values_of`` agreement with ``model``, and
a solve that answers SAT or UNSAT or raises, never a verdict read off a
search a budget stopped.

The stacks :func:`repro.sat.backend.make_backend_factory` builds run it
too: the default stack (the bare native kernel), and the armed
``solver-raise`` fault proxy over it.
"""

from __future__ import annotations

import pytest
from test_native import hard_formula

from repro.core import faults, limits
from repro.sat import CNF, native
from repro.sat.backend import make_backend_factory
from repro.sat.ipasir import IpasirBackend

#: The ``solver-raise`` fault, armed far beyond any solve count reached
#: here, so the proxy only forwards.
ARMED_FAULT = {faults.FAULT_ENV: "solver-raise:1000000000"}
#: Lanes the factory builds from the ``auto`` spec: lane -> environment.
FACTORY_LANES = {"native": {}, "native-fault-proxy": ARMED_FAULT}
BACKENDS = ["ipasir-lib", *FACTORY_LANES]
#: Lanes whose innermost solver is the in-tree kernel bound directly
#: (exact cores).
EXACT_CORE_LANES = ("native", "native-fault-proxy")


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch, native_solver):
    kind = request.param
    monkeypatch.delenv(faults.FAULT_ENV, raising=False)
    if kind == "ipasir-lib":
        made = IpasirBackend(native.library_path())
    else:
        for name, value in FACTORY_LANES[kind].items():
            monkeypatch.setenv(name, value)
        made = make_backend_factory("auto")()
    return made


def test_solve_under_assumptions_is_temporary(backend):
    backend.ensure_vars(2)
    backend.add_clause([1, 2])
    assert backend.solve([-1]) is True
    assert backend.values_of([2]) == {2: True}
    # The assumption does not persist: both polarities stay reachable.
    assert backend.solve([1]) is True
    assert backend.values_of([1]) == {1: True}
    assert backend.solve() is True


def test_failed_assumption_core(backend):
    backend.ensure_vars(3)
    backend.add_clause([1, 2])
    assumptions = [-1, -2, 3]
    assert backend.solve(assumptions) is False
    core = backend.failed_assumptions()
    assert core, "UNSAT under assumptions must yield a non-empty core"
    assert set(core) <= set(assumptions)
    # The core alone must still be unsatisfiable with the formula.
    assert backend.solve(core) is False


def test_formula_level_unsat_core_is_sound(backend, request):
    backend.ensure_vars(1)
    backend.add_clause([1])
    backend.add_clause([-1])
    assert backend.solve([1]) is False
    core = backend.failed_assumptions()
    # Every backend must stay within the assumption set; the precise
    # backends additionally report the empty core (= the formula alone is
    # unsatisfiable).  Simple IPASIR solvers may over-approximate with the
    # full assumption set, which is sound.
    assert set(core) <= {1}
    if request.node.callspec.params["backend"] in EXACT_CORE_LANES:
        assert core == []


def test_incremental_addition_after_sat(backend):
    backend.ensure_vars(2)
    backend.add_clause([1, 2])
    assert backend.solve() is True
    backend.add_clause([-1])
    assert backend.solve() is True
    assert backend.values_of([1, 2]) == {1: False, 2: True}
    backend.add_clause([-2])
    assert backend.solve() is False


def test_incremental_addition_after_unsat_verdict(backend):
    backend.ensure_vars(3)
    backend.add_clause([1, 2])
    assert backend.solve([-1, -2]) is False
    # An UNSAT-under-assumptions verdict must not poison later solves.
    backend.add_clause([3])
    assert backend.solve() is True
    assert backend.values_of([3]) == {3: True}


def test_values_of_agrees_with_model(backend):
    backend.ensure_vars(4)
    backend.add_clauses([[1], [-1, 2], [3, 4], [-3]])
    assert backend.solve() is True
    model = backend.model()
    values = backend.values_of([1, 2, 3, 4])
    assert values == {var: model[var] for var in (1, 2, 3, 4)}
    assert values[1] is True and values[2] is True
    assert values[3] is False and values[4] is True


def test_core_is_empty_after_sat(backend):
    """Uniform contract (regression): ``failed_assumptions()`` is non-empty
    only when the MOST RECENT solve returned UNSAT.  A core-guided search
    interleaves UNSAT and SAT solves on one backend, and a stale core
    surviving a SAT verdict would silently corrupt its working set."""
    backend.ensure_vars(2)
    backend.add_clause([1, 2])
    # Before any solve: nothing to report.
    assert backend.failed_assumptions() == []
    # UNSAT under assumptions: some core appears.
    assert backend.solve([-1, -2]) is False
    assert backend.failed_assumptions()
    # The very next SAT solve must clear it — even for backends whose
    # UNSAT core is the conservative full assumption set.
    assert backend.solve([-1]) is True
    assert backend.failed_assumptions() == []
    # And a SAT solve with no assumptions at all.
    assert backend.solve([-1, -2]) is False
    assert backend.failed_assumptions()
    assert backend.solve() is True
    assert backend.failed_assumptions() == []


def test_core_driven_deletion_search_parity(backend):
    """A miniature of the fence-synthesis loop: selector assumptions guard
    constraints, the all-on core seeds a working set, and destructive
    deletion (fixed order) minimizes it.  Every backend must converge to
    the same minimal set — exact cores (native, IPASIR) just get there
    with fewer solves than conservative full-set cores would.  The formula
    routes the selectors through equivalence chains.
    """
    # Vars: 1 = x; selectors 2..5; 6,7 = aliases of selectors 2,3.
    backend.ensure_vars(7)
    backend.add_clauses([
        [-6, -1], [-2, 6], [6, -2],     # 6 <-> s2,  alias6 -> not x
        [-7, 1], [-3, 7], [7, -3],      # 7 <-> s3,  alias7 -> x
    ])
    selectors = [2, 3, 4, 5]
    assert backend.solve(selectors) is False
    core = [lit for lit in backend.failed_assumptions() if lit in selectors]
    assert core, "all-on UNSAT must produce a selector core"
    working = set(core)
    # Destructive deletion in fixed descending order.
    for selector in sorted(working, reverse=True):
        trial = sorted(working - {selector})
        if backend.solve(trial) is False:
            working = set(trial)
    assert working == {2, 3}
    # 1-minimality: dropping either remaining selector is SAT again.
    assert backend.solve([2]) is True
    assert backend.solve([3]) is True


def test_blocking_clause_enumeration(backend):
    """The solve/block loop every mining pass runs: enumerate all models
    over a small variable set by blocking each one found."""
    backend.ensure_vars(2)
    backend.add_clause([1, 2])
    seen = set()
    while backend.solve() is True:
        values = backend.values_of([1, 2])
        seen.add((values[1], values[2]))
        backend.add_clause(
            [-1 if values[1] else 1, -2 if values[2] else 2]
        )
        assert len(seen) <= 4, "enumeration failed to terminate"
    assert seen == {(True, True), (True, False), (False, True)}


def test_add_cnf_from_an_offset(backend):
    """``add_cnf(cnf, start)`` adds clauses ``start`` onwards and nothing
    before them: an encoded test syncs only what its encoder appended
    since the last solve."""
    cnf = CNF()
    cnf.add_clause([-1])
    backend.add_cnf(cnf, 1)
    # The skipped unit [-1] never reached the backend.
    assert backend.solve([1]) is True
    cnf.add_clause([2])
    backend.add_cnf(cnf, 1)
    assert backend.solve([1]) is True
    assert backend.values_of([1, 2]) == {1: True, 2: True}
    assert backend.solve([-2]) is False


def test_an_empty_clause_makes_every_solve_unsat(backend, request):
    backend.ensure_vars(1)
    assert backend.add_clause([]) is False
    assert backend.solve() is False
    assert backend.solve([1]) is False
    core = backend.failed_assumptions()
    assert set(core) <= {1}
    if request.node.callspec.params["backend"] in EXACT_CORE_LANES:
        assert core == []
    backend.add_clause([1])
    assert backend.solve() is False


def test_a_solve_that_raised_leaves_no_core(backend):
    """``failed_assumptions()`` is empty after a solve that raised, even
    when the solve before it was UNSAT under assumptions: a budget stop
    must not hand that solve's core to a core-guided search."""
    backend.ensure_vars(2)
    backend.add_clause([1, 2])
    assert backend.solve([-1, -2]) is False
    assert backend.failed_assumptions()
    with limits.deadline_scope(limits.Deadline(timeout_seconds=0)):
        with pytest.raises(limits.TimeoutExceeded):
            backend.solve([-1, -2])
    assert backend.failed_assumptions() == []
    assert backend.solve([-1]) is True
    assert backend.values_of([2]) == {2: True}


def test_a_budget_stop_is_no_verdict(backend, poll_only_memory_spike):
    """A solve answers SAT or UNSAT, or raises: memory over the cap at the
    kernel's first poll stops the search, and the solve raises that
    breach although the reading is under the cap again when the kernel
    returns, so the stopped search is never an answer.  The backend then
    answers the next query."""
    cnf, first_pigeon = hard_formula()
    backend.add_cnf(cnf)
    with limits.deadline_scope(poll_only_memory_spike):
        with pytest.raises(limits.MemoryExceeded):
            backend.solve()
    assert poll_only_memory_spike.spiked
    assert backend.failed_assumptions() == []
    assumptions = [-var for var in first_pigeon]
    assert backend.solve(assumptions) is False
    assert set(backend.failed_assumptions()) <= set(assumptions)
