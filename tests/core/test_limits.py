"""Tests for the resource-governance layer (deadlines and budgets)."""

import pytest

from repro.core import limits
from repro.core.checker import CheckOptions


class TestDeadline:
    def test_inert_deadline_never_fires(self):
        deadline = limits.Deadline()
        assert not deadline.enforced
        assert deadline.remaining() is None
        assert not deadline.expired()
        deadline.check()  # no-op

    def test_expired_deadline_raises_timeout(self):
        deadline = limits.Deadline(timeout_seconds=0.0)
        assert deadline.enforced
        assert deadline.expired()
        assert deadline.remaining() == 0.0
        with pytest.raises(limits.TimeoutExceeded) as exc_info:
            deadline.check()
        assert exc_info.value.kind == limits.TIMEOUT

    def test_generous_deadline_does_not_fire(self):
        deadline = limits.Deadline(timeout_seconds=3600.0)
        assert not deadline.expired()
        assert deadline.remaining() > 3000
        deadline.check()

    def test_memory_cap_fires_on_tiny_budget(self):
        # The interpreter's RSS is far above 1 MB, so a 1 MB cap trips
        # immediately wherever /proc/self/statm is readable.
        if limits.current_rss_bytes() is None:
            pytest.skip("no /proc/self/statm on this platform")
        deadline = limits.Deadline(memory_limit_mb=1.0)
        assert deadline.memory_exceeded()
        with pytest.raises(limits.MemoryExceeded) as exc_info:
            deadline.check()
        assert exc_info.value.kind == limits.OOM

    @pytest.mark.parametrize("cap_mb", [1 << 20, 1e308])
    def test_huge_memory_cap_does_not_fire(self, cap_mb):
        """Every positive finite cap works; one whose byte count
        overflows a float is simply never reached."""
        deadline = limits.Deadline(memory_limit_mb=cap_mb)
        assert not deadline.memory_exceeded()
        deadline.check()

    def test_limit_exceptions_share_base_class(self):
        assert issubclass(limits.TimeoutExceeded, limits.LimitExceeded)
        assert issubclass(limits.MemoryExceeded, limits.LimitExceeded)
        assert limits.TIMEOUT in limits.DEGRADED_VERDICTS
        assert limits.OOM in limits.DEGRADED_VERDICTS
        assert limits.CRASHED in limits.DEGRADED_VERDICTS


class TestScope:
    def test_check_deadline_is_noop_without_scope(self):
        assert limits.active_deadline() is None
        limits.check_deadline()

    def test_scope_installs_and_removes(self):
        deadline = limits.Deadline(timeout_seconds=3600.0)
        with limits.deadline_scope(deadline) as installed:
            assert installed is deadline
            assert limits.active_deadline() is deadline
        assert limits.active_deadline() is None

    def test_none_and_inert_deadlines_install_nothing(self):
        with limits.deadline_scope(None) as installed:
            assert installed is None
            assert limits.active_deadline() is None
        with limits.deadline_scope(limits.Deadline()) as installed:
            assert installed is None
            assert limits.active_deadline() is None

    def test_expired_scope_fires_through_module_poll(self):
        with limits.deadline_scope(limits.Deadline(timeout_seconds=0.0)):
            with pytest.raises(limits.TimeoutExceeded):
                limits.check_deadline()

    def test_scope_unwinds_on_exception(self):
        with pytest.raises(RuntimeError):
            with limits.deadline_scope(limits.Deadline(timeout_seconds=1.0)):
                raise RuntimeError("boom")
        assert limits.active_deadline() is None

    def test_nested_scopes_innermost_wins(self):
        outer = limits.Deadline(timeout_seconds=3600.0)
        inner = limits.Deadline(timeout_seconds=1800.0)
        with limits.deadline_scope(outer):
            with limits.deadline_scope(inner):
                assert limits.active_deadline() is inner
            assert limits.active_deadline() is outer


class TestOptionsPlumbing:
    def test_no_budget_yields_no_deadline(self):
        assert limits.deadline_from_options(CheckOptions()) is None

    def test_options_budget_builds_deadline(self):
        deadline = limits.deadline_from_options(
            CheckOptions(timeout=5.0, memory_limit_mb=256.0)
        )
        assert deadline.timeout_seconds == 5.0
        assert deadline.memory_limit_mb == 256.0

    def test_ensure_scope_prefers_ambient_deadline(self):
        # A matrix cell's deadline must not be clobbered by the nested
        # session establishing a fresh (later-expiring) one.
        ambient = limits.Deadline(timeout_seconds=1.0)
        with limits.deadline_scope(ambient):
            with limits.ensure_scope(CheckOptions(timeout=3600.0)) as active:
                assert active is ambient

    def test_ensure_scope_builds_from_options_when_unscoped(self):
        with limits.ensure_scope(CheckOptions(timeout=9.0)) as active:
            assert active is not None
            assert active.timeout_seconds == 9.0
        assert limits.active_deadline() is None

    def test_budget_excluded_from_store_fingerprint(self):
        # A deadline is a property of one run, never of the cached triple.
        from repro.core.session import CheckSession
        from repro.datatypes.registry import get_implementation

        impl = get_implementation("msn")
        base = CheckSession(impl, CheckOptions())._options_fingerprint()
        budgeted = CheckSession(
            impl, CheckOptions(timeout=1.0, memory_limit_mb=64.0)
        )._options_fingerprint()
        assert base == budgeted


class TestEnvironmentSwitches:
    """Every on/off ``CHECKFENCE_*`` switch reads its value one way: strip
    it, then empty and ``0`` are off and anything else is on."""

    @pytest.mark.parametrize("raw, on", [
        ("", False), ("0", False), (" 0", False), ("0\n", False),
        ("1", True), ("true", True), (" yes ", True),
    ])
    def test_env_flag(self, raw, on, monkeypatch):
        monkeypatch.setenv("CHECKFENCE_LARGE", raw)
        assert limits.env_flag("CHECKFENCE_LARGE") is on

    def test_unset_is_off(self, monkeypatch):
        monkeypatch.delenv("CHECKFENCE_LARGE", raising=False)
        assert limits.env_flag("CHECKFENCE_LARGE") is False

    def test_large_tests_switch_reads_true_as_on(self, monkeypatch):
        from repro.harness.runner import large_tests_enabled

        monkeypatch.setenv("CHECKFENCE_LARGE", "true")
        assert large_tests_enabled()

    def test_profile_switch_reads_padded_zero_as_off(self, monkeypatch):
        from repro.core.results import profile_enabled

        monkeypatch.setenv("CHECKFENCE_PROFILE", " 0")
        assert not profile_enabled()
