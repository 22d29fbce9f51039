"""Shared conformance suite for every SolverBackend implementation.

Each backend family — internal CDCL, IPASIR shared library (a C stub
compiled on the fly with gcc), the incremental pipe (over the in-tree CLI,
so no system solver is needed), and the simplifying wrapper — must satisfy
the same observable contract: solving under temporary assumptions,
failed-assumption cores after UNSAT, incremental clause addition after
both SAT and UNSAT verdicts, and ``values_of`` agreement with ``model``.

The stacks :func:`repro.sat.backend.make_backend_factory` builds run it
too: the default stack (the preprocessor bypassing itself on formulas
below its threshold), the preprocessor in front of the pipe, and the
preprocessor over the armed ``solver-raise`` fault proxy.
"""

from __future__ import annotations

import os
import shutil
import subprocess

import pytest

from repro.core import faults
from repro.sat.backend import InternalBackend, make_backend_factory
from repro.sat.ipasir import IncrementalPipeBackend, IpasirBackend
from repro.sat.simplify import SimplifyingBackend

#: Subprocess backends must find the repro package.
pytestmark = pytest.mark.usefixtures("src_on_subprocess_path")


@pytest.fixture(scope="session")
def ipasir_stub_library(tmp_path_factory):
    """Compile tests/sat/ipasir_stub.c into a shared library once per
    session; skip the IPASIR-library lane when no C compiler is around."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        pytest.skip("no C compiler available to build the IPASIR stub")
    source = os.path.join(os.path.dirname(__file__), "ipasir_stub.c")
    out_dir = tmp_path_factory.mktemp("ipasir-stub")
    library = str(out_dir / "libipasirstub.so")
    build = subprocess.run(
        [compiler, "-shared", "-fPIC", "-O1", "-o", library, source],
        capture_output=True, text=True,
    )
    if build.returncode != 0:
        pytest.skip(f"IPASIR stub build failed: {build.stderr.strip()}")
    return library


#: Factory-built lanes: lane -> (spec, environment).  The fault is armed
#: far beyond any solve count reached here, so the proxy only forwards.
FACTORY_LANES = {
    "default-stack": ("internal", {}),
    "simplify-pipe": ("ipasir:cli", {"CHECKFENCE_SIMPLIFY_MIN_CLAUSES": "0"}),
    "fault-proxy": ("internal", {"CHECKFENCE_SIMPLIFY_MIN_CLAUSES": "0",
                                 faults.FAULT_ENV: "solver-raise:1000000000"}),
}
BACKENDS = ["internal", "ipasir-lib", "ipasir-pipe", "simplify", *FACTORY_LANES]
#: Lanes whose innermost solver is the internal CDCL (exact cores).
EXACT_CORE_LANES = ("internal", "simplify", "default-stack", "fault-proxy")


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    kind = request.param
    if kind == "internal":
        made = InternalBackend()
    elif kind == "ipasir-lib":
        library = request.getfixturevalue("ipasir_stub_library")
        made = IpasirBackend(library)
    elif kind == "ipasir-pipe":
        made = IncrementalPipeBackend()
    elif kind == "simplify":
        made = SimplifyingBackend(InternalBackend(), min_clauses=0)
    else:
        spec, env = FACTORY_LANES[kind]
        for name in ("CHECKFENCE_SIMPLIFY", "CHECKFENCE_SIMPLIFY_MIN_CLAUSES",
                     faults.FAULT_ENV):
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        made = make_backend_factory(spec)()
    yield made
    # The wrappers hold no resources; the innermost backend may.
    while isinstance(made, SimplifyingBackend):
        made = made.inner
    close = getattr(made, "close", None)
    if close is not None:
        close()


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
    the same minimal set — exact cores (internal, IPASIR, simplify with
    its substitution-origin mapping) just get there with fewer solves than
    conservative full-set cores would.

    The formula routes the selectors through equivalence chains, so under
    the simplifying backend the core literals come back through the
    preprocessor's assumption-origin substitution map.
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
