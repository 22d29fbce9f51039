"""Simplification preserves the projected outcome set.

The acceptance property of the CNF preprocessor: for any program and any
memory model, mining the SAT encoding with simplification *forced on*
(``CHECKFENCE_SIMPLIFY=1``: engagement threshold 0, so even tiny formulas
run the full pipeline) yields exactly the outcome set of the default
stack, which leaves such formulas unsimplified.  Generated
litmus programs exercise unit propagation, equivalence merging,
subsumption, variable elimination, model reconstruction, projected
blocking clauses and the incremental post-solve clause path all at once.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager

from hypothesis import given, settings, strategies as st

from repro.fuzz import FuzzProgram, generate_program
from repro.oracle.differ import mine_sat_outcomes
from repro.sat.backend import make_backend_factory

MODELS = ["serial", "sc", "tso", "pso", "relaxed"]

_SIMPLIFY_KEY = "CHECKFENCE_SIMPLIFY"


@contextmanager
def simplification(forced: bool):
    """Build solver stacks with the preprocessor forced to engage on every
    formula size, or with the default stack."""
    previous = os.environ.pop(_SIMPLIFY_KEY, None)
    if forced:
        os.environ[_SIMPLIFY_KEY] = "1"
    try:
        yield
    finally:
        os.environ.pop(_SIMPLIFY_KEY, None)
        if previous is not None:
            os.environ[_SIMPLIFY_KEY] = previous


def random_program(seed: int) -> FuzzProgram:
    return generate_program(random.Random(seed))


def mine(compiled, model, simplify: bool):
    """Mine ``compiled`` with the preprocessor forced on, or with the
    default stack."""
    with simplification(simplify):
        factory = make_backend_factory()
    return mine_sat_outcomes(compiled, model, backend_factory=factory)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_simplification_preserves_outcome_sets(seed):
    program = random_program(seed)
    compiled = program.compile()
    for model in MODELS:
        plain = mine(compiled, model, simplify=False)
        simplified = mine(compiled, model, simplify=True)
        assert simplified == plain, (
            f"{program.spec()} @ {model}: simplify-on mined {simplified}, "
            f"simplify-off mined {plain}"
        )


def test_catalog_outcome_sets_identical_under_simplification():
    """Same property on real litmus shapes (fences, atomic blocks)."""
    from repro.litmus.catalog import available_litmus_tests, compiled_litmus

    catalog = available_litmus_tests()
    for name in ["store-buffering", "message-passing+fences", "load-buffering"]:
        compiled = compiled_litmus(catalog[name])
        for model in MODELS:
            plain = mine(compiled, model, simplify=False)
            simplified = mine(compiled, model, simplify=True)
            assert simplified == plain, f"{name} @ {model}"


def test_catalog_check_verdicts_identical_under_simplification():
    """A full check (assertion + inclusion query, counterexample decoding)
    is verdict-identical with forced simplification, including the FAIL
    direction with its reconstructed-model counterexample."""
    from repro.core.checker import CheckOptions, check
    from repro.datatypes.registry import get_implementation

    cases = [("msn", "T0", "relaxed"), ("msn-unfenced", "T0", "relaxed")]
    from repro.harness.catalog import get_test

    for impl_name, test_name, model in cases:
        implementation = get_implementation(impl_name)
        test = get_test("queue", test_name)
        with simplification(False):
            plain = check(implementation, test, model, CheckOptions())
        with simplification(True):
            simplified = check(implementation, test, model, CheckOptions())
        assert simplified.passed == plain.passed, impl_name
        if not plain.passed:
            assert simplified.counterexample is not None
            # The decoded observation must be a real counterexample on
            # both sides: outside the (shared) specification.
            assert (
                simplified.counterexample.observation
                not in plain.specification
            )
