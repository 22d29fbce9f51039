"""Tests for the litmus catalog (Fig. 2 and the classic shapes)."""

import pytest

from repro.litmus import available_litmus_tests, iriw_allowed, observation_allowed
from repro.memorymodel import (
    PSO,
    RELAXED,
    SEQUENTIAL_CONSISTENCY,
    SERIAL,
    TSO,
    available_models,
    get_model,
    is_stronger,
)
from repro.sat import native
from repro.sat.backend import make_backend_factory


class TestModelRegistry:
    def test_lookup_by_name(self):
        assert get_model("relaxed") is RELAXED
        assert get_model("SC").name == "sc"
        assert get_model(RELAXED) is RELAXED
        with pytest.raises(KeyError):
            get_model("powerpc")

    def test_available_models(self):
        names = [m.name for m in available_models()]
        assert names == ["serial", "sc", "tso", "pso", "relaxed"]

    def test_strength_ordering(self):
        assert is_stronger(SERIAL, SEQUENTIAL_CONSISTENCY)
        assert is_stronger(SEQUENTIAL_CONSISTENCY, TSO)
        assert is_stronger(TSO, PSO)
        assert is_stronger(PSO, RELAXED)
        assert not is_stronger(RELAXED, SEQUENTIAL_CONSISTENCY)

    def test_fence_kind_helpers(self):
        from repro.lsl import FenceKind

        assert FenceKind.LOAD_STORE.orders_before == ("load",)
        assert FenceKind.LOAD_STORE.orders_after == ("store",)
        assert set(FenceKind.FULL.orders_before) == {"load", "store"}


class TestLitmusOutcomes:
    def setup_method(self):
        self.tests = available_litmus_tests()

    def test_catalog_contents(self):
        assert {"store-buffering", "message-passing", "load-buffering",
                "iriw-fenced"} <= set(self.tests)

    def test_store_buffering(self):
        litmus = self.tests["store-buffering"]
        assert not observation_allowed(litmus, "sc")
        assert observation_allowed(litmus, "tso")
        assert observation_allowed(litmus, "relaxed")

    def test_store_buffering_fences_restore_order(self):
        litmus = self.tests["store-buffering+fences"]
        assert not observation_allowed(litmus, "relaxed")

    def test_message_passing(self):
        litmus = self.tests["message-passing"]
        assert not observation_allowed(litmus, "sc")
        assert not observation_allowed(litmus, "tso")
        assert observation_allowed(litmus, "pso")
        assert observation_allowed(litmus, "relaxed")

    def test_message_passing_fences(self):
        litmus = self.tests["message-passing+fences"]
        assert not observation_allowed(litmus, "relaxed")

    def test_load_buffering(self):
        litmus = self.tests["load-buffering"]
        assert not observation_allowed(litmus, "sc")
        assert not observation_allowed(litmus, "tso")
        assert observation_allowed(litmus, "relaxed")

    def test_load_buffering_fences(self):
        litmus = self.tests["load-buffering+fences"]
        assert not observation_allowed(litmus, "relaxed")

    def test_fig2_iriw_forbidden_on_relaxed(self):
        """Fig. 2: Relaxed orders all stores, so the two fenced readers can
        never disagree on the order of the two writes."""
        assert not iriw_allowed("relaxed")
        assert not iriw_allowed("sc")


class TestBackendEquivalence:
    """The litmus verdict matrix must be bit-identical across solver
    stacks: the native kernel and the same kernel through its IPASIR
    exports."""

    def test_matrix_identical_across_backends(self, native_solver):
        stacks = {
            "native": make_backend_factory("auto"),
            "ipasir": make_backend_factory(f"ipasir:{native.library_path()}"),
        }
        assert stacks["native"]().name == "native"
        assert stacks["ipasir"]().name == "ipasir(repro-cdcl)"
        models = ["sc", "tso", "pso", "relaxed"]
        matrices = {name: {} for name in stacks}
        for name, litmus in available_litmus_tests().items():
            if not litmus.observation:
                continue
            for model in models:
                for stack, factory in stacks.items():
                    matrices[stack][(name, model)] = observation_allowed(
                        litmus, model, backend_factory=factory
                    )
        reference = matrices["native"]
        for stack, matrix in matrices.items():
            assert matrix == reference, stack
        # Sanity: the matrix separates the models (not all-equal verdicts).
        assert True in reference.values()
        assert False in reference.values()


class TestCompiledCache:
    def test_variant_with_colliding_name_is_not_conflated(self):
        """A caller-supplied litmus variant reusing a catalog name must get
        its own compilation, not the cached catalog one."""
        import dataclasses

        catalog = available_litmus_tests()
        original = catalog["store-buffering"]
        fenced = catalog["store-buffering+fences"]
        # Same name as the unfenced test, but fenced thread bodies.
        variant = dataclasses.replace(
            original, threads=list(fenced.threads)
        )
        assert observation_allowed(original, "tso") is True
        assert observation_allowed(variant, "tso") is False
