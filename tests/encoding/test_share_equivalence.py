"""Skeleton reuse preserves formulas, outcome sets, and verdicts.

The acceptance property of the shared-skeleton encoding: a per-model
layer built on a fork of a skeleton that already served another memory
model produces exactly the same formula — clause for clause — as the same
layer on a freshly compiled test, hence the same outcome sets and check
verdicts.  Every test here encodes model B after model A on one compiled
test and compares it with model B alone on a fresh compile.
"""

from __future__ import annotations

import random
import subprocess
import sys

from hypothesis import given, settings, strategies as st

from repro.encoding import compile_test
from repro.encoding.formula import encode_test
from repro.fuzz import generate_program
from repro.memorymodel.base import get_model
from repro.oracle.differ import mine_sat_outcomes

MODELS = ["serial", "sc", "tso", "pso", "relaxed"]


def _previous(model: str) -> str:
    """The model encoded first on the reused skeleton."""
    return MODELS[MODELS.index(model) - 1]


def _mine_reused_and_fresh(compile_fresh, model):
    """Outcome sets of ``model`` on a skeleton that already served another
    model, and on a freshly compiled test."""
    reused = compile_fresh()
    mine_sat_outcomes(reused, _previous(model))
    return mine_sat_outcomes(reused, model), mine_sat_outcomes(
        compile_fresh(), model
    )


def test_catalog_outcome_sets_identical_on_reused_skeleton():
    """Real litmus shapes (fences, atomic blocks): the mined outcome set
    under every model is identical on a reused and a fresh skeleton."""
    from repro.litmus.catalog import available_litmus_tests

    catalog = available_litmus_tests()
    for name in [
        "store-buffering",
        "message-passing+fences",
        "load-buffering",
    ]:
        litmus = catalog[name]

        def compile_fresh():
            return compile_test(litmus.implementation, litmus.symbolic_test())

        for model in MODELS:
            reused, fresh = _mine_reused_and_fresh(compile_fresh, model)
            assert reused == fresh, f"{name} @ {model}"


def test_reused_and_fresh_formulas_are_identical():
    """Clause lists and variable counts agree exactly — the layer replays
    the same construction on the fork, it does not approximate it."""
    from repro.datatypes.registry import get_implementation
    from repro.harness.catalog import get_test

    implementation = get_implementation("msn")
    test = get_test("queue", "T0")
    for model_name in MODELS:
        model = get_model(model_name)
        compiled = compile_test(implementation, test)
        encode_test(compiled, get_model(_previous(model_name)))
        reused = encode_test(compiled, model)
        fresh = encode_test(compile_test(implementation, test), model)
        assert reused.stats.skeleton_shared and not fresh.stats.skeleton_shared
        assert reused.cnf.num_vars == fresh.cnf.num_vars, model_name
        assert list(reused.cnf.clauses) == list(fresh.cnf.clauses), model_name
        assert reused.stats.cnf_clauses == fresh.stats.cnf_clauses
        assert reused.stats.order_pairs == fresh.stats.order_pairs


def test_session_verdicts_identical_with_reused_skeleton():
    """Full checks (assertion + inclusion query, counterexample decoding)
    are verdict-identical between a session sweeping every model on one
    skeleton and a fresh session per model, including the FAIL direction."""
    from repro.core.session import CheckSession
    from repro.datatypes.registry import get_implementation
    from repro.harness.catalog import get_test

    test = get_test("queue", "T0")
    for impl_name in ("msn", "msn-unfenced"):
        implementation = get_implementation(impl_name)
        swept = CheckSession(implementation).sweep(test, MODELS)
        for model, reused in zip(MODELS, swept):
            fresh = CheckSession(implementation).check(test, model)
            assert reused.passed == fresh.passed, (impl_name, model)
            assert (
                reused.stats.cnf_clauses == fresh.stats.cnf_clauses
            ), (impl_name, model)
            assert (
                reused.specification.observations
                == fresh.specification.observations
            )
            if not fresh.passed:
                assert reused.counterexample is not None
                assert (
                    reused.counterexample.observation
                    not in fresh.specification
                )


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reuse_preserves_outcome_sets_on_fuzz_programs(seed):
    """Property form over generated litmus programs (relaxed model — the
    one where every reordering axiom is live)."""
    program = generate_program(random.Random(seed))
    for model in ("sc", "relaxed"):
        reused, fresh = _mine_reused_and_fresh(program.compile, model)
        assert reused == fresh, f"{program.spec()} @ {model}"


_DETERMINISM_SNIPPET = """\
from repro.core.session import CheckSession
from repro.datatypes.registry import get_implementation
from repro.encoding.formula import encode_test
from repro.harness.catalog import get_test
from repro.memorymodel.base import get_model

session = CheckSession(get_implementation("msn"))
test = get_test("queue", "T0")
for model_name in ["sc", "tso", "relaxed"]:
    model = get_model(model_name)
    compiled = session.compile(test, model)
    encoded = encode_test(compiled, model)
    print(model_name, encoded.cnf.num_vars, encoded.cnf.num_clauses,
          encoded.stats.skeleton_shared)
"""


def test_two_process_determinism(src_on_subprocess_path):
    """Two independent processes produce byte-identical formula statistics
    on the shared path — no hidden iteration-order or hash-seed
    dependence (PYTHONHASHSEED is left random on purpose)."""
    def run():
        return subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SNIPPET],
            capture_output=True, text=True, check=True,
        ).stdout

    first, second = run(), run()
    assert first == second
    assert "relaxed" in first
    # The sweep reused the memoized skeleton on the later models.
    assert first.strip().splitlines()[-1].endswith("True")
