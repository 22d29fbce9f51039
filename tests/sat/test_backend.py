"""Tests for the pluggable solver backend layer.

The differential suite checks :class:`InternalBackend` (the native
kernel) against brute-force truth-table enumeration on random small CNFs;
the spec tests pin how :func:`make_backend_factory` resolves a spec and
stacks the fault proxy around the chosen backend.
"""

from __future__ import annotations

import _ctypes
import itertools
import random
import subprocess
import sys

import pytest

from repro.core import faults
from repro.encoding import encode_test
from repro.litmus.catalog import available_litmus_tests, compiled_litmus
from repro.memorymodel.base import get_model
from repro.sat import CNF, ipasir, native
from repro.sat.backend import InternalBackend, make_backend_factory


def brute_force_satisfiable(cnf: CNF) -> bool:
    variables = list(range(1, cnf.num_vars + 1))
    for bits in itertools.product([False, True], repeat=len(variables)):
        assignment = dict(zip(variables, bits))
        if all(
            any(assignment[abs(l)] == (l > 0) for l in clause)
            for clause in cnf.clauses
        ):
            return True
    return not cnf.clauses


def check_model(cnf: CNF, model: dict[int, bool]) -> bool:
    return all(
        any(model.get(abs(l), False) == (l > 0) for l in clause)
        for clause in cnf.clauses
    )


def random_cnfs(count: int, seed: int = 20070607):
    """Deterministic stream of small random CNFs."""
    rng = random.Random(seed)
    for _ in range(count):
        num_vars = rng.randint(1, 7)
        num_clauses = rng.randint(1, 20)
        cnf = CNF()
        cnf.new_vars(num_vars)
        for _ in range(num_clauses):
            size = rng.randint(1, 3)
            cnf.add_clause([
                rng.randint(1, num_vars) * rng.choice([1, -1])
                for _ in range(size)
            ])
        yield cnf


def run_differential(make_backend, count: int) -> None:
    for cnf in random_cnfs(count):
        expected = brute_force_satisfiable(cnf)
        backend = make_backend()
        backend.add_cnf(cnf)
        got = backend.solve()
        assert got == expected, f"{backend.name} disagrees on {cnf!r}"
        if got:
            assert check_model(cnf, backend.model()), (
                f"{backend.name} returned an invalid model for {cnf!r}"
            )


class TestInternalBackend:
    def test_differential_vs_brute_force(self):
        run_differential(InternalBackend, count=120)

    def test_add_cnf_from_an_offset(self):
        """``add_cnf(cnf, start)`` adds exactly clauses ``start`` onwards."""
        backend = InternalBackend()
        cnf = CNF()
        a, b = cnf.new_vars(2)
        cnf.add_clause([a])
        cnf.add_clause([-a, b])
        assert backend.add_cnf(cnf, 1) is True
        assert backend.solve([-a]) is True
        assert backend.values_of([a]) == {a: False}
        cnf.add_clause([-b])
        assert backend.add_cnf(cnf, 2) is True
        assert backend.solve([a]) is False
        assert backend.failed_assumptions() == [a]

    def test_assumptions_and_stats(self):
        cnf = CNF()
        a, b = cnf.new_vars(2)
        cnf.add_clause([-a, b])
        backend = InternalBackend()
        backend.add_cnf(cnf)
        assert backend.solve(assumptions=[a]) is True
        assert backend.model()[b] is True
        backend.add_clause([-b])
        assert backend.solve(assumptions=[a]) is False
        assert backend.solve() is True
        assert backend.stats().propagations >= 1
        assert backend.name == "native"


class TestBackendSpecs:
    def test_auto_specs(self):
        for spec in ("auto", ""):
            backend = make_backend_factory(spec)()
            assert isinstance(backend, InternalBackend)

    def test_env_default(self, native_solver, monkeypatch):
        library = native.library_path()
        monkeypatch.setenv("CHECKFENCE_SOLVER", f"ipasir:{library}")
        backend = make_backend_factory(None)()
        assert backend.name == "ipasir(repro-cdcl)"

    def test_unknown_spec_rejected(self):
        """The pure-Python kernel's ``internal`` spec is gone with it."""
        for spec in ("zchaff", "dimacs", "dimacs:kissat", "ipasir:", "native",
                     "internal"):
            with pytest.raises(ValueError, match="auto or ipasir:<path"):
                make_backend_factory(spec)

    def test_bare_ipasir_names_the_library_spec(self):
        """The bare ``ipasir`` spec names no library: it is rejected, and
        the error names the spec that does."""
        with pytest.raises(ValueError, match="ipasir:<path"):
            make_backend_factory("ipasir")

    def test_ipasir_library_loads_once_per_path(self, native_solver):
        path = native.library_path()
        factory = make_backend_factory(f"ipasir:{path}")
        first, second = factory(), factory()
        assert first._library is second._library
        assert ipasir.load_ipasir_library(path) is first._library
        assert first.name == "ipasir(repro-cdcl)"

    @pytest.mark.parametrize("library, message", [
        ("missing", "cannot load IPASIR library"),
        ("not-ipasir", "is not an IPASIR library"),
    ])
    def test_unloadable_ipasir_library_raises_for_library_callers(
        self, library, message, tmp_path
    ):
        """Only the CLI turns a library that cannot be loaded into a usage
        error: the spec itself is accepted, and building a backend from
        it raises :class:`IpasirError`."""
        path = {
            "missing": str(tmp_path / "libnothing.so"),
            "not-ipasir": _ctypes.__file__,
        }[library]
        factory = make_backend_factory(f"ipasir:{path}")
        with pytest.raises(ipasir.IpasirError, match=message):
            factory()


class TestBackendStack:
    """The factory builds the backend the spec names, inside the fault
    proxy only when the ``solver-raise`` fault is armed."""

    def test_native_kernel_runs_bare_by_default(
        self, native_solver, monkeypatch
    ):
        monkeypatch.delenv("CHECKFENCE_SOLVER", raising=False)
        monkeypatch.delenv(faults.FAULT_ENV, raising=False)
        factory = make_backend_factory()
        backend = factory()
        assert factory.stack == ("auto", "")
        assert isinstance(backend, InternalBackend)
        assert isinstance(backend.solver, native_solver)
        assert backend.name == "native"

    def test_the_pipeline_does_not_import_the_preprocessor(
        self, src_on_subprocess_path
    ):
        """No stack includes the CNF preprocessor, so a fresh
        ``import repro.cli`` leaves :mod:`repro.sat.simplify` unloaded."""
        probe = (
            "import sys, repro.cli\n"
            "print('repro.sat.simplify' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
        ).stdout
        assert out == "False\n"

    _RUN_PROBE = (
        "import sys\n"
        "from repro.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'repro.sat.simplify' in sys.modules)\n"
    )
    _LITMUS_SPEC = "x=1 r0=y | y=1 r1=x"

    @pytest.mark.parametrize("argv", [
        ["check", "--impl", "msn", "--test", "T0", "--model", "sc"],
        ["spec", "--impl", "msn", "--test", "T0"],
        ["matrix", "--litmus", "--models", "sc", "--jobs", "1", "--quiet"],
        ["oracle", "--spec", _LITMUS_SPEC, "--model", "tso",
         "--engines", "all"],
        ["fuzz", "--budget", "5", "--seed", "1", "--jobs", "1", "--quiet"],
        ["synthesize", "--spec", _LITMUS_SPEC, "--model", "tso"],
    ], ids=lambda argv: argv[0])
    def test_a_pipeline_run_leaves_the_preprocessor_unloaded(
        self, src_on_subprocess_path, argv
    ):
        """The subcommands import their engines on first use, so a run of
        each, not only the import of ``repro.cli``, must leave
        :mod:`repro.sat.simplify` unloaded."""
        out = subprocess.run(
            [sys.executable, "-c", self._RUN_PROBE, *argv],
            capture_output=True, text=True, check=True,
        ).stdout
        assert out.splitlines()[-1] == "0 False"

    def test_encoded_test_syncs_clauses_from_the_first(self):
        """``EncodedTest`` hands the stack it built its formula from the
        first clause on."""
        events = []

        class RecordingBackend(InternalBackend):
            def add_cnf(self, cnf, start=0):
                events.append(("add_cnf", start))
                return super().add_cnf(cnf, start)

        litmus = available_litmus_tests()["store-buffering"]
        encoded = encode_test(
            compiled_litmus(litmus), get_model("sc"),
            backend_factory=RecordingBackend,
        )
        assert encoded.solve()
        assert events and events[0] == ("add_cnf", 0)
