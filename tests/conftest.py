"""Shared fixtures: solver subprocesses, the native kernel, and the
injected encoder bug of the mutation-detection tests."""

from __future__ import annotations

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
    catch."""
    from repro.encoding.memory import MemoryModelEncoder

    monkeypatch.setattr(
        MemoryModelEncoder, "_assert_same_address_order",
        lambda self: None,
    )
    monkeypatch.setattr(
        MemoryModelEncoder, "_same_address_static_edges",
        lambda self: (),
    )


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
    """The native kernel's solver class; skips with the reason when the
    kernel cannot be built or loaded here."""
    from repro.sat import native

    if native.load() is None:
        pytest.skip(f"native kernel unavailable: {native.unavailable_reason()}")
    return native.NativeSolver
