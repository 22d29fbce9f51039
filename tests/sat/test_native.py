"""The native CDCL kernel: agreement with brute force on incremental
scripts, deadline handling, determinism across processes, and the build
(cache, failures, and the error every check then raises).

The kernel unit tests live in ``test_solver.py``; the backend contract in
``test_backend_contract.py`` covers the native lanes.
"""

from __future__ import annotations

import itertools
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import limits
from repro.core.checker import CheckOptions
from repro.core.session import CheckSession
from repro.datatypes.registry import get_implementation
from repro.harness.catalog import get_test
from repro.sat import CNF, native
from repro.sat.backend import make_backend_factory
from repro.sat.ipasir import IpasirBackend, IpasirLibrary
from repro.sat.solver import SolverError


def satisfiable(num_vars: int, clauses, assumptions=()) -> bool:
    """Brute force: is the formula plus the assumption units satisfiable?"""
    units = [[lit] for lit in assumptions]
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(
            any(bits[abs(lit) - 1] == (lit > 0) for lit in clause)
            for clause in itertools.chain(clauses, units)
        ):
            return True
    return False


@st.composite
def incremental_scripts(draw):
    """A variable count and rounds of (clauses to add, assumptions)."""
    num_vars = draw(st.integers(min_value=1, max_value=7))
    literal = st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda var: st.sampled_from([var, -var])
    )
    clause = st.lists(literal, min_size=1, max_size=3)
    rounds = draw(st.lists(
        st.tuples(st.lists(clause, max_size=6), st.lists(literal, max_size=4)),
        min_size=1, max_size=5,
    ))
    return num_vars, rounds


class TestAgreesWithBruteForce:
    @settings(max_examples=120, deadline=None)
    @given(incremental_scripts())
    def test_incremental_solves_under_assumptions(self, native_solver, script):
        num_vars, rounds = script
        solver = native_solver()
        solver.ensure_vars(num_vars)
        clauses: list[list[int]] = []
        for added, assumptions in rounds:
            for clause in added:
                solver.add_clause(clause)
                clauses.append(clause)
            verdict = solver.solve(assumptions)
            assert verdict == satisfiable(num_vars, clauses, assumptions)
            if verdict:
                model = solver.model()
                assert all(
                    any(model[abs(lit)] == (lit > 0) for lit in clause)
                    for clause in clauses
                )
                assert all(model[abs(lit)] == (lit > 0) for lit in assumptions)
                assert solver.values_of(range(1, num_vars + 1)) == model
                assert solver.failed_assumptions() == []
            else:
                core = solver.failed_assumptions()
                assert set(core) <= set(assumptions)
                assert not satisfiable(num_vars, clauses, core)


def test_add_cnf_rejects_an_index_outside_the_formula(native_solver):
    """The kernel reads the CNF buffers through raw pointers, so an
    out-of-range start index must never reach it."""
    cnf = CNF()
    cnf.add_clause([1, 2])
    solver = native_solver()
    for start in (-1, 2):
        with pytest.raises(ValueError):
            solver.add_cnf(cnf, start)
    assert solver.add_cnf(cnf, 1) is True
    assert solver.solve([-1, -2]) is True


def pigeonhole(pigeons: int, holes: int) -> tuple[CNF, list[int]]:
    """The pigeonhole formula, and the holes of its first pigeon."""
    cnf = CNF()
    grid = [[cnf.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for row in grid:
        cnf.add_clause(row)
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-grid[p1][h], -grid[p2][h]])
    return cnf, grid[0]


def hard_formula() -> tuple[CNF, list[int]]:
    """A pigeonhole instance no kernel refutes within a second."""
    return pigeonhole(12, 11)


def kernel_solver(lane: str, cnf: CNF):
    """A solver of the in-tree kernel holding ``cnf``: ``native`` binds
    the kernel directly, ``ipasir`` loads it as an IPASIR library."""
    if lane == "native":
        return native.NativeSolver(cnf)
    backend = IpasirBackend(native.library_path())
    backend.add_cnf(cnf)
    return backend


def test_clause_deletion_keeps_the_formula_intact(native_solver):
    """A guarded pigeonhole refutation runs tens of thousands of conflicts,
    so learned-clause deletion and arena compaction both run; the clause
    database must come out of them whole, across later solves."""
    cnf, _ = pigeonhole(9, 8)
    guard = cnf.new_var()
    guarded = CNF(cnf.num_vars)
    for clause in cnf.clauses:
        guarded.add_clause([*clause, -guard])
    solver = native_solver(guarded)
    assert solver.solve([guard]) is False
    assert solver.failed_assumptions() == [guard]
    assert solver.total_stats.deleted_clauses > 1000
    assert solver.solve() is True
    model = solver.model()
    assert all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in guarded.clauses
    )
    assert solver.solve([guard]) is False


class TestDeadlines:
    def test_expired_deadline_interrupts_and_solver_stays_usable(
        self, native_solver
    ):
        cnf, first_pigeon = hard_formula()
        solver = native_solver(cnf)
        with limits.deadline_scope(limits.Deadline(timeout_seconds=0.2)):
            with pytest.raises(limits.TimeoutExceeded):
                solver.solve()
        # The same solver answers the next query correctly: with every
        # hole of the first pigeon assumed empty, its clause is violated.
        assumptions = [-var for var in first_pigeon]
        assert solver.solve(assumptions) is False
        core = solver.failed_assumptions()
        assert core and set(core) <= set(assumptions)

    @pytest.mark.parametrize("lane", ["native", "ipasir"])
    def test_callback_exception_is_reraised(
        self, native_solver, monkeypatch, lane
    ):
        class Exploding:
            """A deadline whose check passes before the solve, raises from
            inside the C call at the first poll, and reports expiry after
            that, so a solve that loses the exception still stops."""

            checks = 0

            def check(self):
                Exploding.checks += 1
                if Exploding.checks == 2:
                    raise KeyError("raised in the terminate callback")
                if Exploding.checks > 2:
                    raise limits.TimeoutExceeded("a later poll")

        cnf, first_pigeon = hard_formula()
        solver = kernel_solver(lane, cnf)
        monkeypatch.setattr(limits, "active_deadline", Exploding)
        with pytest.raises(KeyError, match="terminate callback"):
            solver.solve()
        assert Exploding.checks == 2
        monkeypatch.undo()
        assert solver.solve([-var for var in first_pigeon]) is False


class TestRejectedInput:
    """Input no kernel call may take, and a status that is neither SAT nor
    UNSAT, raise :class:`SolverError` on both lanes (an IPASIR library's
    :class:`repro.sat.ipasir.IpasirError` is one), and the solver stays
    usable."""

    @pytest.mark.parametrize("lane", ["native", "ipasir"])
    def test_a_clause_holding_zero_adds_nothing(self, native_solver, lane):
        solver = kernel_solver(lane, CNF())
        with pytest.raises(SolverError, match="0 is not a valid literal"):
            solver.add_clause([1, 0, 2])
        # Had the 1 reached the kernel, the next clause would read [1, 3].
        solver.add_clause([3])
        assert solver.solve([-3]) is False

    @pytest.mark.parametrize("lane", ["native", "ipasir"])
    def test_a_zero_assumption_is_rejected(self, native_solver, lane):
        """IPASIR would read a 0 as the end of the assumption list."""
        solver = kernel_solver(lane, CNF())
        solver.add_clause([1, 2])
        with pytest.raises(
            SolverError, match="0 is not a valid assumption literal"
        ):
            solver.solve([-1, 0, -2])
        assert solver.failed_assumptions() == []
        assert solver.solve([-1, -2]) is False

    @pytest.mark.parametrize("lane", ["native", "ipasir"])
    def test_an_unexpected_status_is_no_verdict(
        self, native_solver, monkeypatch, lane
    ):
        """A kernel that ends a solve with neither answer and no breach to
        report (IPASIR's 0, an interrupted search) raises."""
        solver = kernel_solver(lane, CNF())
        solver.add_clause([1, 2])
        if lane == "native":
            monkeypatch.setattr(solver._lib, "cf_solve", lambda *args: 0)
        else:
            monkeypatch.setattr(IpasirLibrary, "solve", lambda *args: 0)
        with pytest.raises(SolverError, match="unexpected solve status 0"):
            solver.solve([-1])
        assert solver.failed_assumptions() == []
        monkeypatch.undo()
        assert solver.solve([-1]) is True


_SIGINT_SNIPPET = """\
import sys

from repro.core import limits
from test_native import hard_formula, kernel_solver

lane, scope = sys.argv[1:]
cnf, first_pigeon = hard_formula()
solver = kernel_solver(lane, cnf)
deadline = limits.Deadline(600) if scope == "deadline" else None
print("solving", flush=True)
try:
    with limits.deadline_scope(deadline):
        solver.solve()
except KeyboardInterrupt:
    print("interrupted", solver.solve([-var for var in first_pigeon]))
"""


@pytest.mark.skipif(not hasattr(signal, "SIGINT"), reason="needs SIGINT")
@pytest.mark.parametrize("lane,scope", [
    ("native", "no-deadline"),
    ("ipasir", "no-deadline"),
    ("ipasir", "deadline"),
])
def test_ctrl_c_interrupts_a_native_solve(
    native_solver, monkeypatch, src_on_subprocess_path, lane, scope
):
    """Ctrl-C during a long solve of the in-tree kernel, bound directly or
    loaded as an IPASIR library, surfaces as KeyboardInterrupt within a
    poll interval (ctypes would swallow it in the callback), and the
    solver stays usable."""
    here = os.path.dirname(__file__)
    monkeypatch.setenv(
        "PYTHONPATH", f"{here}{os.pathsep}{os.environ['PYTHONPATH']}"
    )
    child = subprocess.Popen(
        [sys.executable, "-c", _SIGINT_SNIPPET, lane, scope],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        assert child.stdout.readline().strip() == "solving"
        time.sleep(0.5)
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=30)
    finally:
        child.kill()
        child.wait()
    assert out.strip() == "interrupted False", err


_DETERMINISM_SNIPPET = """\
from repro.core.session import CheckSession
from repro.datatypes.registry import get_implementation
from repro.harness.catalog import get_test

session = CheckSession(get_implementation("msn-unfenced"))
for model in ["sc", "tso", "relaxed"]:
    result = session.check(get_test("queue", "T0"), model)
    stats = result.stats
    print(model, result.passed, stats.solver_backend, stats.solver_decisions,
          stats.solver_conflicts, stats.solver_propagations)
"""


def test_two_process_determinism(
    native_solver, monkeypatch, src_on_subprocess_path
):
    """Two processes report identical native counters (PYTHONHASHSEED is
    left random on purpose): nothing in the kernel depends on addresses
    or uninitialised memory."""
    monkeypatch.delenv("CHECKFENCE_SOLVER", raising=False)

    def run():
        return subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SNIPPET],
            capture_output=True, text=True, check=True,
        ).stdout

    first, second = run(), run()
    assert first == second
    assert first.count(" native ") == 3
    assert "relaxed False native" in first


@pytest.fixture
def fresh_kernel_state(monkeypatch):
    """Forget this process's kernel load, so the next use builds again
    (restored afterwards)."""
    for name in ("_library", "_library_path", "_failure"):
        monkeypatch.setattr(native, name, None)
    monkeypatch.delenv("CHECKFENCE_SOLVER", raising=False)
    return monkeypatch


class TestBuild:
    def test_failed_build_fails_every_check_with_its_reason(
        self, broken_native_build
    ):
        """No fallback: the first encode (or backend) raises the build's
        reason, and so does every later use in the process."""
        session = CheckSession(get_implementation("msn"), CheckOptions())
        for _ in range(2):
            with pytest.raises(native.NativeUnavailable) as raised:
                session.check(get_test("queue", "T0"), "sc")
            assert str(raised.value) == broken_native_build
        with pytest.raises(native.NativeUnavailable, match="no C compiler"):
            make_backend_factory()()

    def test_setup_does_not_load_the_library(self, broken_native_build):
        """Loading is lazy, so session setup pays nothing for it: a
        session and a backend factory are made without trying the build."""
        CheckSession(get_implementation("msn"), CheckOptions())
        make_backend_factory()
        assert native._library is None and native._failure is None

    def test_import_does_not_load_the_library(self, src_on_subprocess_path):
        probe = (
            "import repro.cli, repro.core.session, repro.harness.matrix\n"
            "from repro.sat import native\n"
            "print(native._library, native._failure)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
        ).stdout
        assert out == "None None\n"

    def test_no_compiler_and_a_cold_cache_is_unavailable(
        self, fresh_kernel_state, tmp_path
    ):
        fresh_kernel_state.setenv("CHECKFENCE_CACHE_DIR", str(tmp_path / "cold"))
        fresh_kernel_state.setenv("PATH", str(tmp_path / "no-compiler"))
        with pytest.raises(native.NativeUnavailable, match="no C compiler"):
            native.load()
        # The failure is cached: the build is not retried.
        fresh_kernel_state.setattr(native, "_build", None)
        with pytest.raises(native.NativeUnavailable, match="no C compiler"):
            native.load()

    @pytest.mark.skipif(
        not (shutil.which("cc") or shutil.which("gcc")),
        reason="needs a C compiler",
    )
    def test_compile_error_keeps_the_compiler_output(
        self, fresh_kernel_state, tmp_path
    ):
        broken = tmp_path / "cdcl.c"
        broken.write_text("this is not C\n")
        fresh_kernel_state.setattr(native, "SOURCE", broken)
        fresh_kernel_state.setenv("CHECKFENCE_CACHE_DIR", str(tmp_path / "c"))
        with pytest.raises(native.NativeUnavailable, match="failed on cdcl.c"):
            native.load()
        with pytest.raises(native.NativeUnavailable, match="failed on cdcl.c"):
            make_backend_factory()()
        assert not list((tmp_path / "c").glob("*.tmp"))

    def test_load_error_names_the_library(self, fresh_kernel_state, tmp_path):
        junk = tmp_path / "libcfcdcl-junk.so"
        junk.write_text("not a shared library\n")
        fresh_kernel_state.setattr(native, "_build", lambda: str(junk))
        with pytest.raises(native.NativeUnavailable, match="cannot load"):
            native.load()

    def test_unwritable_cache_builds_into_a_temporary_directory(
        self, native_solver, fresh_kernel_state, tmp_path
    ):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        fresh_kernel_state.setenv("CHECKFENCE_CACHE_DIR", str(blocker / "cache"))
        assert native.load() is not None
        assert not native.library_path().startswith(str(tmp_path))
        assert make_backend_factory()().name == "native"

    def test_build_is_cached_by_source_hash(
        self, native_solver, fresh_kernel_state, tmp_path
    ):
        cache = tmp_path / "cache"
        fresh_kernel_state.setenv("CHECKFENCE_CACHE_DIR", str(cache))
        assert native.load() is not None
        built = native.library_path()
        assert built.startswith(str(cache))
        assert [path.name for path in cache.iterdir()] == [
            built.rsplit("/", 1)[-1]
        ]
        # A later process finds the cached library and needs no compiler.
        fresh_kernel_state.setattr(native, "_library", None)
        fresh_kernel_state.setenv("PATH", str(tmp_path / "no-compiler"))
        assert native.load() is not None
        assert native.library_path() == built
