"""The synthesis re-check against the outcome-mining predicate.

Catalog cells and fuzz litmus programs share one re-check: the program
rebuilt with the chosen fences as real fences runs through the plain
assertion and inclusion checks.  For a litmus program that must decide
exactly what mining does — "every outcome of the fenced program under
every model is an SC outcome of the original" — including for the
insufficient sets one fence short of a repair.
"""

from __future__ import annotations

import pytest

from repro.core.specification import ObservationSet
from repro.core.synthesize import (
    _verify_concrete,
    placements_of,
    synthesize_litmus,
)
from repro.encoding import encode_test
from repro.fuzz import FuzzProgram, generate_corpus
from repro.memorymodel.base import get_model


def _mined(compiled, model) -> set[tuple[int, ...]]:
    return set(encode_test(compiled, get_model(model)).observations())


def _unfenced_corpus(seed: int, budget: int) -> list[FuzzProgram]:
    programs = []
    for generated in generate_corpus(seed, budget):
        threads = tuple(
            stripped
            for thread in generated.threads
            if (stripped := tuple(op for op in thread if op.kind != "fence"))
        )
        if threads:
            programs.append(FuzzProgram(threads=threads))
    return programs


@pytest.mark.parametrize(
    "models", [["relaxed"], ["pso", "relaxed"]], ids=",".join
)
def test_recheck_agrees_with_outcome_mining(models):
    verdicts = []
    for program in _unfenced_corpus(seed=11, budget=30):
        result = synthesize_litmus(program, models)
        if result.already_passes or not result.feasible:
            continue
        compiled = program.compile()
        sc_outcomes = _mined(compiled, "sc")
        specification = ObservationSet(
            labels=compiled.observation_labels(), observations=sc_outcomes
        )
        fence_sets = [result.fences] + [
            [other for other in result.fences if other is not fence]
            for fence in result.fences
        ]
        for fences in fence_sets:
            fenced = program.with_fences(placements_of(fences)).compile()
            recheck = _verify_concrete(
                fenced, [get_model(m) for m in models], specification,
                backend_factory=None,
            )
            mined = all(
                _mined(fenced, model) <= sc_outcomes for model in models
            )
            assert recheck == mined, (program.spec(), models, fences)
            verdicts.append(recheck)
    assert True in verdicts and False in verdicts
