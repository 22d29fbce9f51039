"""Tests for specification mining (both miners) and observation sets."""

import gc
import hashlib

import pytest

from repro.core import limits
from repro.core.specification import (
    ObservationSet,
    ReferenceSpecificationMiner,
    SatSpecificationMiner,
    SpecificationError,
    mine_specification,
)
from repro.datatypes import get_implementation
from repro.datatypes.reference import ReferenceQueue
from repro.datatypes.registry import base_implementations, category_of
from repro.encoding import compile_test
from repro.harness.catalog import get_test
from repro.harness.catalog import test_names as catalog_test_names


class TestObservationSet:
    def test_membership_and_describe(self):
        spec = ObservationSet(labels=["x", "y"])
        spec.add((1, 2))
        assert (1, 2) in spec
        assert (2, 1) not in spec
        assert len(spec) == 1
        assert spec.describe((1, 2)) == "x=1, y=2"


class _NoDequeue(ReferenceQueue):
    dequeue = None


class _WideDequeue(ReferenceQueue):
    def dequeue(self):
        return (1, 0, 0)  # one observable more than the operation has


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

    def test_contains(self):
        miner = ReferenceSpecificationMiner(self._compiled())
        assert miner.contains((1, 1, 1))
        assert not miner.contains((0, 1, 1))

    def test_expired_deadline_stops_mining(self):
        compiled = self._compiled("Tpc3")
        with limits.deadline_scope(limits.Deadline(timeout_seconds=0.0)):
            with pytest.raises(limits.TimeoutExceeded):
                ReferenceSpecificationMiner(compiled).mine()

    def test_mining_leaves_nothing_for_the_collector(self):
        """The walk's memo is freed by reference counting when mine()
        returns; a walk that refers to itself would keep it (thousands of
        entries on the large tests) until a full collection."""
        compiled = self._compiled()
        gc.collect()
        gc.disable()
        try:
            spec = ReferenceSpecificationMiner(compiled).mine()
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(spec) == 4

    def test_interrupted_mining_leaves_nothing_for_the_collector(self):
        class AfterPolls:
            """A deadline that expires at its third poll, mid-walk."""

            enforced = True

            def __init__(self):
                self.polls = 0

            def check(self):
                self.polls += 1
                if self.polls == 3:
                    raise limits.TimeoutExceeded("expired mid-walk")

        compiled = self._compiled("Tpc3")
        gc.collect()
        gc.disable()
        try:
            with limits.deadline_scope(AfterPolls()):
                with pytest.raises(limits.TimeoutExceeded):
                    ReferenceSpecificationMiner(compiled).mine()
            assert gc.collect() == 0
        finally:
            gc.enable()

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

    @pytest.mark.parametrize("reference", [_NoDequeue, _WideDequeue])
    def test_bad_reference_rejected(self, reference):
        implementation = get_implementation("msn")
        implementation.reference = reference
        compiled = compile_test(implementation, get_test("queue", "T0"))
        with pytest.raises(SpecificationError):
            ReferenceSpecificationMiner(compiled).mine()

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


#: Size and digest (``_digest``) of the reference observation set of every
#: catalog test, as the per-interleaving replay mined them before the
#: memoized walk replaced it.  Both queues, and both sets, share a reference,
#: so one pin serves each category's test for both implementations.
PINNED_SETS = {
    ("queue", "T0"): (4, "bb37fdf76488c4cf"),
    ("queue", "T1"): (22, "9987eb77915d25ab"),
    ("queue", "Tpc2"): (16, "cd6944f29a0f95c5"),
    ("queue", "Tpc3"): (64, "c5b3b8ca880410c3"),
    ("queue", "Tpc4"): (256, "7fc81e1f2de11cc8"),
    ("queue", "Tpc5"): (1024, "94a05ec369043120"),
    ("queue", "Tpc6"): (4096, "223bafcd7abac966"),
    ("queue", "Ti2"): (16, "cbd2fed8699b707e"),
    ("queue", "Ti3"): (46, "1b965a08af26d636"),
    ("queue", "T53"): (72, "bba486a2c8d6325f"),
    ("queue", "T54"): (100, "8c691947382ee830"),
    ("queue", "T55"): (118, "bfcbeeb96002d485"),
    ("queue", "T56"): (126, "f3bcf3f67429039e"),
    ("set", "Sac"): (6, "569bc53a9482c71b"),
    ("set", "Sar"): (6, "569bc53a9482c71b"),
    ("set", "Saa"): (6, "28a56e9ade68eb4b"),
    ("set", "Sacr"): (18, "995f2e4f0ad7cc4f"),
    ("set", "Saacr"): (36, "c47c628ed9eef4f5"),
    ("set", "Sacr2"): (144, "ce1e3da0fb7dcf1c"),
    ("set", "Saaarr"): (106, "7c92b6dcae7aac2d"),
    ("set", "Sarr"): (16, "3b58a379e4c63ecf"),
    ("set", "S1"): (826, "0884a90edc98e6bb"),
    ("deque", "D0"): (6, "0b09e15a8566897f"),
    ("deque", "Da"): (12, "dfdbd644c6952a1b"),
    ("deque", "Db"): (22, "5799068e874b47f3"),
    ("deque", "Dm"): (640, "addc718731cfabb4"),
    ("deque", "Dq"): (786, "bb76a6de220da49c"),
}

#: Every catalog test of the five Table 1 implementations.
CATALOG = [
    (implementation, test)
    for implementation in base_implementations()
    for test in catalog_test_names(category_of(implementation))
]


def _digest(observations) -> str:
    return hashlib.sha256(repr(sorted(observations)).encode()).hexdigest()[:16]


class TestPinnedCatalogSets:
    @pytest.mark.parametrize(
        "implementation,test_name", CATALOG,
        ids=[f"{impl}-{test}" for impl, test in CATALOG],
    )
    def test_catalog(self, implementation, test_name):
        category = category_of(implementation)
        compiled = compile_test(
            get_implementation(implementation), get_test(category, test_name)
        )
        spec = ReferenceSpecificationMiner(compiled).mine()
        assert (len(spec), _digest(spec.observations)) == \
            PINNED_SETS[category, test_name]


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
