"""Tests of the one-query check: "an ``assert`` fails or the observation
is outside S" is one solve, and the assertion disjunct A widens the
inclusion clauses only when the test has an ``assert``."""

import pytest

from repro.core import CheckSession
from repro.core.specification import mine_specification
from repro.datatypes import get_implementation
from repro.datatypes.registry import category_of
from repro.encoding import compile_test
from repro.encoding.formula import EncodedTest, encode_test
from repro.harness.catalog import get_test
from repro.memorymodel import get_model


def _test(implementation, name):
    return get_test(category_of(implementation), name)


@pytest.mark.parametrize(
    "implementation,test,model,kind,note",
    [
        ("lazylist", "Sac", "relaxed", None, None),
        ("lazylist-unfenced", "Sac", "relaxed", "observation",
         "an execution is not observationally equivalent to any serial "
         "execution"),
        ("lazylist-unfenced", "Sar", "pso", "assertion",
         "an assertion in the implementation can fail"),
    ],
    ids=["pass", "observation-fail", "assertion-fail"],
)
def test_a_check_solves_its_formula_once(
    monkeypatch, implementation, test, model, kind, note
):
    """One solve, with no assumption, answers the check; a FAIL's
    counterexample kind and note follow what its model violates."""
    session = CheckSession(get_implementation(implementation))
    symbolic = _test(implementation, test)
    session.specification(symbolic)  # mined before the solves are counted
    calls = []
    solve = EncodedTest.solve

    def counting_solve(self, assumptions=()):
        calls.append(list(assumptions))
        return solve(self, assumptions)

    monkeypatch.setattr(EncodedTest, "solve", counting_solve)
    result = session.check(symbolic, model)
    assert calls == [[]]
    if kind is None:
        assert result.passed and result.counterexample is None
        assert result.notes == []
        return
    assert result.failed
    assert result.counterexample.kind == kind
    assert result.notes == [note]
    assert bool(result.counterexample.violated_assertions) == (
        kind == "assertion"
    )


def _widened(implementation, test):
    """The clauses ``not_in_guard`` and then ``require_not_in`` add to one
    relaxed formula, next to the projected blocking clauses of S in
    sorted order, and how many variables the two calls mint."""
    compiled = compile_test(
        get_implementation(implementation), _test(implementation, test)
    )
    spec = mine_specification(compiled)
    encoded = encode_test(compiled, get_model("relaxed"))
    blocking = [
        clause
        for clause in map(
            encoded.projected_blocking_clause, sorted(spec.observations)
        )
        if clause is not None
    ]
    assert blocking
    cnf = encoded.cnf
    num_vars = cnf.num_vars
    start = len(cnf)
    guard = encoded.not_in_guard(spec.observations)
    guarded = [list(c) for c in cnf.clauses[start:]]
    start = len(cnf)
    encoded.require_not_in(spec.observations)
    permanent = [list(c) for c in cnf.clauses[start:]]
    minted = cnf.num_vars - num_vars
    return encoded, blocking, guard, guarded, permanent, minted


@pytest.mark.parametrize(
    "implementation,test", [("lazylist", "Sac"), ("lazylist-unfenced", "Sar")]
)
def test_an_assert_widens_every_inclusion_clause_by_one_literal(
    implementation, test
):
    """lazylist asserts in ``unlock()``: each clause either method adds is
    its blocking clause plus one shared literal A, the gate "some
    ``assert`` fails", built once for the formula."""
    encoded, blocking, guard, guarded, permanent, minted = _widened(
        implementation, test
    )
    assert encoded.assertions
    assert minted == 2
    # A's gate clauses come first, then ¬g ∨ A ∨ block(o) per o.
    violation = permanent[0][0]
    assert guarded[-len(blocking):] == [
        [-guard, violation] + c for c in blocking
    ]
    assert permanent == [[violation] + c for c in blocking]


def test_the_shared_literal_is_some_assertion_failing():
    """Under relaxed an ``unlock()`` of lazylist-unfenced/Sar can fail its
    assertion: assuming A is SAT and the model names the assertion, while
    A with every assertion holding is UNSAT."""
    encoded, *_rest, permanent, _minted = _widened("lazylist-unfenced", "Sar")
    violation = permanent[0][0]
    assert encoded.solve([violation])
    assert encoded.violated_assertions(encoded.model_values())
    holds = [handle for handle, _ in encoded.assertions]
    assert not encoded.solve([violation] + holds)


def test_no_assert_leaves_the_inclusion_clauses_as_they_were():
    """msn has no ``assert``: the clauses are exactly the projected
    blocking clauses in sorted order, and the guard is the one variable
    minted."""
    encoded, blocking, guard, guarded, permanent, minted = _widened(
        "msn-unfenced", "T0"
    )
    assert not encoded.assertions
    assert minted == 1
    assert guarded == [[-guard] + c for c in blocking]
    assert permanent == blocking
