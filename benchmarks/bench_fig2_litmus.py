"""Fig. 2 and Section 2.3.3: comparing the memory models on litmus tests.

The Fig. 2 execution (two readers disagreeing about the order of two
independent writes, despite load-load fences) is *not* possible on Relaxed
because Relaxed globally orders all stores; the classic store-buffering /
message-passing / load-buffering shapes separate Seriality, SC, TSO, PSO and
Relaxed from each other.
"""

import pytest

from repro.harness.reporting import format_table
from repro.litmus import (
    available_litmus_tests,
    iriw_allowed,
    observation_outcome,
)

_MODELS = ["sc", "tso", "pso", "relaxed"]

# Backend selection follows CHECKFENCE_SOLVER (the backend layer's own env
# fallback); set it to e.g. "ipasir" to attribute the numbers and the JSON
# solver counters to an external solver.

#: Expected verdicts (allowed?) per litmus test and model.
_EXPECTED = {
    "store-buffering": {"sc": False, "tso": True, "pso": True, "relaxed": True},
    "store-buffering+fences": {"sc": False, "tso": False, "pso": False,
                               "relaxed": False},
    "message-passing": {"sc": False, "tso": False, "pso": True, "relaxed": True},
    "message-passing+fences": {"sc": False, "tso": False, "pso": False,
                               "relaxed": False},
    "load-buffering": {"sc": False, "tso": False, "pso": False, "relaxed": True},
    "load-buffering+fences": {"sc": False, "tso": False, "pso": False,
                              "relaxed": False},
}

_RESULTS = []


@pytest.mark.parametrize("name", sorted(_EXPECTED))
@pytest.mark.parametrize("model", _MODELS)
def test_litmus_outcome(benchmark, attach_solver_stats, name, model):
    litmus = available_litmus_tests()[name]
    outcome = benchmark.pedantic(
        observation_outcome, args=(litmus, model), rounds=1, iterations=1
    )
    if outcome.solver_stats is not None:
        attach_solver_stats(outcome.solver_stats, backend=outcome.backend)
    if outcome.order is not None:
        benchmark.extra_info["order"] = outcome.order
    assert outcome.allowed == _EXPECTED[name][model], (
        f"{name} under {model}: got "
        f"{'allowed' if outcome.allowed else 'forbidden'}"
    )
    _RESULTS.append((name, model, outcome.allowed))


def test_fig2_iriw_forbidden_on_relaxed(run_once):
    assert run_once(iriw_allowed, "relaxed") is False


def test_report_litmus_matrix(capsys):
    assert _RESULTS
    names = sorted({name for name, _, _ in _RESULTS})
    rows = []
    for name in names:
        verdicts = {model: allowed for n, model, allowed in _RESULTS if n == name}
        rows.append(
            [name] + ["allowed" if verdicts.get(m) else "forbidden" for m in _MODELS]
        )
    with capsys.disabled():
        print("\nLitmus outcomes by memory model:\n")
        print(format_table(["test"] + _MODELS, rows))
