"""Tests for the unified CHECKFENCE_FAULT injection framework."""

import pytest

from repro.core import faults


class TestParse:
    def test_empty_string_parses_to_nothing(self):
        assert faults.parse_faults("") == ()
        assert faults.parse_faults(" , ,") == ()

    def test_worker_crash_with_default_attempt_bound(self):
        (fault,) = faults.parse_faults("worker-crash:msn/T0@sc")
        assert fault.kind == "worker-crash"
        assert fault.arg == "msn/T0@sc"
        assert fault.count == 1

    def test_worker_crash_with_explicit_attempt_bound(self):
        (fault,) = faults.parse_faults("worker-crash:msn/T0@sc:3")
        assert fault.arg == "msn/T0@sc"
        assert fault.count == 3

    def test_worker_hang_parses_like_crash(self):
        (fault,) = faults.parse_faults("worker-hang:a/b@c:2")
        assert (fault.kind, fault.arg, fault.count) == ("worker-hang", "a/b@c", 2)

    def test_mixed_directive_list(self):
        parsed = faults.parse_faults(
            "worker-crash:a/b@c,interrupt:d/e@f,cell-timeout:g/h@i,"
            "solver-raise:4,store-io"
        )
        assert [f.kind for f in parsed] == [
            "worker-crash", "interrupt", "cell-timeout", "solver-raise",
            "store-io",
        ]

    def test_unknown_directive_rejected(self):
        with pytest.raises(ValueError, match="unknown fault"):
            faults.parse_faults("worker-crsh:a/b@c")

    def test_missing_arguments_rejected(self):
        with pytest.raises(ValueError):
            faults.parse_faults("worker-crash")
        with pytest.raises(ValueError):
            faults.parse_faults("interrupt:")
        with pytest.raises(ValueError):
            faults.parse_faults("solver-raise:zero")
        with pytest.raises(ValueError):
            faults.parse_faults("store-io:extra")


class TestActiveFaults:
    def test_env_drives_active_faults(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_ENV, "store-io")
        assert faults.store_io_active()
        monkeypatch.delenv(faults.FAULT_ENV)
        assert not faults.store_io_active()

    def test_helpers_filter_by_kind(self, monkeypatch):
        monkeypatch.setenv(
            faults.FAULT_ENV,
            "worker-crash:x/y@z:2,worker-hang:p/q@r,cell-timeout:t/u@v,"
            "solver-raise:3,solver-raise:7",
        )
        assert faults.crash_attempts() == {"x/y@z": 2}
        assert faults.hang_attempts() == {"p/q@r": 1}
        assert faults.timeout_cells() == {"t/u@v"}
        assert faults.solver_raise_counts() == frozenset({3, 7})
        assert not faults.store_io_active()


class TestSolverProxy:
    class _Recorder:
        def __init__(self):
            self.calls = 0

        def solve(self):
            self.calls += 1
            return "sat"

        def add_clause(self, clause):
            return clause

    def test_proxy_raises_on_armed_call_only(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_ENV, "solver-raise:2")
        faults.reset_solver_counter()
        backend = self._Recorder()
        proxy = faults.FaultySolverProxy(backend)
        assert proxy.solve() == "sat"
        with pytest.raises(RuntimeError, match="injected solver fault"):
            proxy.solve()
        assert proxy.solve() == "sat"
        assert backend.calls == 2  # the armed call never reached the backend

    def test_proxy_delegates_other_attributes(self, monkeypatch):
        monkeypatch.delenv(faults.FAULT_ENV, raising=False)
        faults.reset_solver_counter()
        proxy = faults.FaultySolverProxy(self._Recorder())
        assert proxy.add_clause((1, 2)) == (1, 2)
