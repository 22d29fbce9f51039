"""Differential regression corpus: frozen fuzz programs vs the encoder.

Thirty fuzzer-shaped programs (fixed at generation time, see
``corpus.txt``) are checked with the full three-way differential harness:
the operational enumerator, the reads-from closure engine and the mined
SAT outcome set must all agree under Relaxed, PSO, TSO, SC and Seriality.
Any drift in any engine trips one of these cells without running the
fuzzer.

A mutation test makes the safety net itself testable: disabling the
same-address store-order axiom in the encoder must produce divergences.
"""

from pathlib import Path

import pytest

from repro.fuzz import FuzzProgram, compiled_fuzz_program
from repro.oracle import differential_check

MODELS = ["serial", "sc", "tso", "pso", "relaxed"]

#: The hand-written coherence sentinel (first corpus line): two same-address
#: stores observed through a load-load fence.
COHERENCE_SPEC = "x=1 x=2 | r0=x f(ll) r1=x"


def corpus_specs() -> list[str]:
    path = Path(__file__).parent / "corpus.txt"
    specs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            specs.append(line)
    return specs


CORPUS = corpus_specs()


def test_corpus_is_frozen_and_parseable():
    assert len(CORPUS) == 30
    assert CORPUS[0] == COHERENCE_SPEC
    for spec in CORPUS:
        assert FuzzProgram.parse(spec).spec() == spec


@pytest.mark.parametrize("model", MODELS)
def test_corpus_engines_agree_three_way(model):
    failures = []
    for spec in CORPUS:
        report = differential_check(
            compiled_fuzz_program(spec), model, name=spec, engines="all"
        )
        assert report.engines == ("enumerator", "rfcheck", "sat")
        assert not report.inconclusive, (
            f"corpus program became inconclusive: {report.describe()}"
        )
        if report.diverged:
            failures.append(report.describe())
    assert not failures, "\n".join(failures)


class TestEncoderMutationIsCaught:
    """Dropping the same-address store-order axiom must not go unnoticed."""

    # The drop_same_address_axiom fixture (tests/conftest.py) disables
    # both halves of the axiom: the statically resolved constant-address
    # pairs and the symbolic implication.

    def test_coherence_sentinel_diverges(self, drop_same_address_axiom):
        report = differential_check(
            FuzzProgram.parse(COHERENCE_SPEC).compile(), "relaxed",
            name=COHERENCE_SPEC,
        )
        assert report.diverged
        # The mutated encoder *allows* executions the axioms forbid
        # (reading the first store after the second): the dangerous,
        # under-constrained direction.
        [pair] = report.pair_divergences()
        assert (pair["first"], pair["second"]) == ("enumerator", "sat")
        assert (2, 1) in pair["only_in_second"]

    def test_three_way_isolates_the_mutated_engine(
        self, drop_same_address_axiom
    ):
        # With all three engines running, the two unmutated engines agree
        # with each other and both diverge from the mutated SAT encoder —
        # the pairwise report points at the culprit.
        report = differential_check(
            FuzzProgram.parse(COHERENCE_SPEC).compile(), "relaxed",
            name=COHERENCE_SPEC, engines="all",
        )
        assert report.diverged
        pairs = {
            (pair["first"], pair["second"])
            for pair in report.pair_divergences()
        }
        assert pairs == {("enumerator", "sat"), ("rfcheck", "sat")}

    def test_corpus_catches_the_mutation(self, drop_same_address_axiom):
        diverged = []
        for spec in CORPUS:
            report = differential_check(
                FuzzProgram.parse(spec).compile(), "relaxed", name=spec
            )
            if report.diverged:
                diverged.append(spec)
        assert diverged, "no corpus program caught the dropped axiom"
