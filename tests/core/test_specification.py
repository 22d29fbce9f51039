"""Tests for specification mining (both miners) and observation sets."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.specification import (
    ObservationSet,
    ReferenceSpecificationMiner,
    SatSpecificationMiner,
    SpecificationError,
    interleavings,
    mine_specification,
)
from repro.datatypes import get_implementation
from repro.datatypes.registry import base_implementations, category_of
from repro.encoding import compile_test
from repro.harness.catalog import get_test
from repro.harness.catalog import test_names as catalog_test_names
from repro.lsl import Invocation, SymbolicTest


class TestInterleavings:
    def test_single_sequence(self):
        assert list(interleavings([[1, 2, 3]])) == [[1, 2, 3]]

    def test_two_singletons(self):
        results = [tuple(i) for i in interleavings([[1], [2]])]
        assert sorted(results) == [(1, 2), (2, 1)]

    def test_counts_match_binomial(self):
        # Interleavings of sequences of length 2 and 3: C(5, 2) = 10.
        results = list(interleavings([["a1", "a2"], ["b1", "b2", "b3"]]))
        assert len(results) == 10
        assert len({tuple(r) for r in results}) == 10

    def test_order_preserved_within_sequence(self):
        for result in interleavings([[1, 2], [3, 4]]):
            assert result.index(1) < result.index(2)
            assert result.index(3) < result.index(4)

    def test_empty_sequences_ignored(self):
        assert list(interleavings([[], [1], []])) == [[1]]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 3))
    def test_count_formula(self, n, m):
        import math

        first = [("a", i) for i in range(n)]
        second = [("b", i) for i in range(m)]
        count = sum(1 for _ in interleavings([first, second]))
        assert count == math.comb(n + m, n)


class TestObservationSet:
    def test_membership_and_describe(self):
        spec = ObservationSet(labels=["x", "y"])
        spec.add((1, 2))
        assert (1, 2) in spec
        assert (2, 1) not in spec
        assert len(spec) == 1
        assert spec.describe((1, 2)) == "x=1, y=2"


class TestReferenceMiner:
    def _compiled(self, test_name="T0", impl="msn"):
        implementation = get_implementation(impl)
        test = get_test("queue", test_name)
        return compile_test(implementation, test)

    def test_t0_specification(self):
        spec = ReferenceSpecificationMiner(self._compiled()).mine()
        # Observation: (enqueue arg, dequeue ok, dequeue value).
        assert spec.observations == {
            (0, 0, 0),
            (1, 0, 0),
            (0, 1, 0),
            (1, 1, 1),
        }

    def test_contains_early_exit(self):
        miner = ReferenceSpecificationMiner(self._compiled())
        assert miner.contains((1, 1, 1))
        assert not miner.contains((0, 1, 1))

    def test_init_sequence_included(self):
        compiled = self._compiled("Ti2")
        spec = ReferenceSpecificationMiner(compiled).mine()
        # Every observation has 8 slots: init enqueue arg + two ops per
        # thread with their observables.
        assert all(len(obs) == len(spec.labels) for obs in spec.observations)
        assert len(spec) > 4

    def test_missing_reference_rejected(self):
        implementation = get_implementation("msn")
        implementation.reference = None
        test = get_test("queue", "T0")
        compiled = compile_test(implementation, test)
        with pytest.raises(SpecificationError):
            ReferenceSpecificationMiner(compiled)

    def test_set_specification_matches_semantics(self):
        implementation = get_implementation("lazylist")
        test = get_test("set", "Sac")
        compiled = compile_test(implementation, test)
        spec = ReferenceSpecificationMiner(compiled).mine()
        # add(x) then contains(y): contains true iff x == y and add happened
        # before; plus the orders where contains runs first.
        assert (1, 1, 1, 1) in spec
        assert (1, 1, 1, 0) in spec           # contains before add
        assert (1, 1, 0, 0) in spec           # different keys
        assert (1, 1, 0, 1) not in spec       # contains(0) cannot be true


#: Every small-catalog test of the five Table 1 implementations.
SMALL_CATALOG = [
    (implementation, test)
    for implementation in base_implementations()
    for test in catalog_test_names(category_of(implementation), "small")
]


class TestSatMinerAgreesWithReference:
    @pytest.mark.parametrize(
        "implementation,test_name", SMALL_CATALOG,
        ids=[f"{impl}-{test}" for impl, test in SMALL_CATALOG],
    )
    def test_small_catalog(self, implementation, test_name):
        compiled = compile_test(
            get_implementation(implementation),
            get_test(category_of(implementation), test_name),
        )
        reference = ReferenceSpecificationMiner(compiled).mine()
        sat = SatSpecificationMiner(compiled).mine()
        assert sat.observations == reference.observations

    def test_mine_specification_auto_prefers_reference(self):
        compiled = compile_test(get_implementation("msn"), get_test("queue", "T0"))
        spec = mine_specification(compiled, "auto")
        assert spec.method == "reference"

    def test_mine_specification_sat_method(self):
        compiled = compile_test(get_implementation("msn"), get_test("queue", "T0"))
        spec = mine_specification(compiled, "sat")
        assert spec.method == "sat"
        assert len(spec) == 4

    def test_unknown_method_rejected(self):
        compiled = compile_test(get_implementation("msn"), get_test("queue", "T0"))
        with pytest.raises(ValueError):
            mine_specification(compiled, "magic")
