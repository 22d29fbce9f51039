"""Shared fixtures: solver subprocesses, the native kernel (and a failed
build of it), a memory budget that only a kernel's poll sees breached,
and the injected encoder bug of the mutation-detection tests."""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path

import pytest

#: Absolute path of the in-tree package root.
SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture
def drop_same_address_axiom(monkeypatch):
    """Disable BOTH halves of the same-address store-order axiom (the
    constant-address pairs a layer adds to its static order and the
    symbolic implication) — the injected encoder bug the
    mutation-detection tests expect the differential oracle / fuzzer to
    catch.  The encoder alone gets the model with the axiom's switch off;
    the oracles keep the real model."""
    from repro.encoding.memory import MemoryModelEncoder

    build = MemoryModelEncoder.__init__

    def without_the_axiom(self, context, model, table):
        build(
            self, context,
            dataclasses.replace(model, same_address_store_order=False),
            table,
        )

    monkeypatch.setattr(MemoryModelEncoder, "__init__", without_the_axiom)


@pytest.fixture
def src_on_subprocess_path(monkeypatch):
    """Make ``repro`` importable in spawned solver subprocesses, which do
    not inherit the parent's ``sys.path`` manipulation."""
    existing = os.environ.get("PYTHONPATH", "")
    if SRC not in existing.split(os.pathsep):
        monkeypatch.setenv(
            "PYTHONPATH", SRC + (os.pathsep + existing if existing else "")
        )


@pytest.fixture(scope="session")
def native_solver():
    """The native kernel's solver class.  Every check needs the library,
    so a failed build fails the test with its reason (never a skip)."""
    from repro.sat import native

    native.load()
    return native.NativeSolver


@pytest.fixture
def broken_native_build(monkeypatch):
    """This process as if the native library could not be built:
    ``native._build`` raises and the process's load is forgotten (both
    restored afterwards).  Returns the reason the failed build gives."""
    from repro.sat import native

    reason = "no C compiler (cc or gcc) on PATH"

    def build():
        raise native.NativeUnavailable(reason)

    for name in ("_library", "_library_path", "_failure"):
        monkeypatch.setattr(native, name, None)
    monkeypatch.setattr(native, "_build", build)
    return reason


@pytest.fixture
def poll_only_memory_spike(monkeypatch):
    """A deadline whose resident-memory reading is over its cap at the
    first terminate poll a kernel makes, and under it at every other
    reading, in a poll or not: the budget stops a search once, and is met
    again by the time the solve returns.  Install it with
    ``limits.deadline_scope``; ``spiked`` says whether the poll came.

    A reading is in a poll while the callback every solve installs runs,
    which the fixture marks by wrapping the callback type
    ``repro.sat.ipasir.TERMINATE_CALLBACK``.  An IPASIR library reads that
    type when it loads, so the in-tree library is loaded first."""
    from repro.core import limits
    from repro.sat import ipasir, native

    ipasir.load_ipasir_library(native.library_path())

    class PollOnlySpike(limits.Deadline):
        polling = False
        spiked = False

        def memory_exceeded(self) -> bool:
            if self.polling and not self.spiked:
                self.spiked = True
                return True
            return False

    deadline = PollOnlySpike(memory_limit_mb=100_000)
    callback_type = ipasir.TERMINATE_CALLBACK

    def marking_polls(function):
        def poll(data):
            deadline.polling = True
            try:
                return function(data)
            finally:
                deadline.polling = False

        return callback_type(poll)

    monkeypatch.setattr(ipasir, "TERMINATE_CALLBACK", marking_polls)
    return deadline
