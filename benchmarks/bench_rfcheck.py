"""The reads-from engine against SAT mining and the operational enumerator.

Mining the full outcome set of a litmus test is where the polynomial
reads-from engine earns its keep: the SAT lane pays one solve/decode/block
round trip *per outcome* (plus the encoding itself), while the rf engine
decides each candidate reads-from assignment by incremental order closure —
no CNF, no solver.  This module times all three lanes on the same workload
and embeds them in the benchmark JSON under ``extra_info["rfcheck"]``:

* **rfcheck** — :func:`repro.rfcheck.rfcheck_outcomes`;
* **enumerator** — :func:`repro.oracle.enumerate_outcomes` (explicit-state);
* **sat** — :func:`repro.oracle.differ.mine_sat_outcomes` (solve/block).

Two workloads: the many-outcome headline (81 outcomes under relaxed, the
shape where per-outcome solver round trips hurt most) carries the
rfcheck-vs-SAT acceptance gate (>=1.5x against the default solver stack,
the median of interleaved per-round ratios), and a litmus-catalog x
5-model sweep records the aggregate picture.  Every lane must produce identical outcome
sets — a benchmark that drifts from the differential oracle is measuring
the wrong thing.
"""

import statistics
import time

from repro.fuzz import FuzzProgram
from repro.litmus.catalog import available_litmus_tests, compiled_litmus
from repro.memorymodel.base import available_models
from repro.oracle import enumerate_outcomes
from repro.oracle.differ import mine_sat_outcomes
from repro.rfcheck import rfcheck_outcomes

#: Two threads of two stores + two loads each: 81 reachable outcomes under
#: relaxed, so SAT mining pays 82 solver calls where the rf engine walks
#: one candidate space.
HEADLINE_SPEC = "x=1 x=2 r0=y r1=y | y=1 y=2 r2=x r3=x"
HEADLINE_MODEL = "relaxed"

#: Rounds on the headline.  Each round times every lane once, back to
#: back, so a burst of load on the machine hits the lanes of that round
#: alike; the gate reads the median of the per-round SAT/rfcheck ratios.
ROUNDS = 20

#: The headline claim: rfcheck mines the outcome set at least this much
#: faster than SAT solve/block on the default solver stack (the native
#: kernel).  Measured medians sit near 2x with the lowest near 1.9x; a
#: build whose rfcheck lane is 2x slower measures near 1x.
SPEEDUP_GATE = 1.5


def _lane(mine):
    """(outcomes, wall-clock) of one warm ``mine()`` run."""
    mine()
    start = time.perf_counter()
    outcomes = mine()
    return outcomes, time.perf_counter() - start


def test_many_outcome_headline(benchmark):
    """The acceptance gate: on a many-outcome test the rf engine mines the
    identical outcome set at least 1.5x faster than the SAT lane on the
    default stack, as the median of interleaved per-round ratios."""
    compiled = FuzzProgram.parse(HEADLINE_SPEC).compile()
    lanes = {
        "rfcheck": lambda: rfcheck_outcomes(compiled, HEADLINE_MODEL).outcomes,
        "enumerator": lambda: enumerate_outcomes(
            compiled, HEADLINE_MODEL
        ).outcomes,
        "sat": lambda: mine_sat_outcomes(compiled, HEADLINE_MODEL),
    }

    def run_rounds():
        outcomes = {name: mine() for name, mine in lanes.items()}
        seconds = {name: [] for name in lanes}
        for _ in range(ROUNDS):
            for name, mine in lanes.items():
                start = time.perf_counter()
                mine()
                seconds[name].append(time.perf_counter() - start)
        return outcomes, seconds

    outcomes, seconds = benchmark.pedantic(run_rounds, rounds=1, iterations=1)
    speedup = statistics.median(
        sat / rf for sat, rf in zip(seconds["sat"], seconds["rfcheck"])
    )
    benchmark.extra_info["rfcheck"] = {
        "workload": "headline",
        "spec": HEADLINE_SPEC,
        "model": HEADLINE_MODEL,
        "outcomes": len(outcomes["rfcheck"]),
        "rounds": ROUNDS,
        **{
            f"{name}_seconds": statistics.median(times)
            for name, times in seconds.items()
        },
        "speedup_vs_sat": speedup,
        "speedup_gate": SPEEDUP_GATE,
    }
    assert outcomes["rfcheck"] == outcomes["enumerator"] == outcomes["sat"]
    assert speedup >= SPEEDUP_GATE, (
        f"rf-engine mining was only {speedup:.2f}x faster than SAT "
        f"solve/block on {HEADLINE_SPEC!r} @ {HEADLINE_MODEL} (median of "
        f"{ROUNDS} interleaved rounds; gate {SPEEDUP_GATE}x)"
    )


def test_litmus_catalog_sweep(benchmark):
    """Catalog x every memory model, once per lane: aggregate mining
    wall-clock with outcome-set identity asserted cell by cell."""
    compiled_tests = {
        name: compiled_litmus(litmus)
        for name, litmus in available_litmus_tests().items()
    }
    models = sorted(model.name for model in available_models())

    def run_sweep():
        totals = {"rfcheck": 0.0, "enumerator": 0.0, "sat": 0.0}
        for name, compiled in compiled_tests.items():
            for model in models:
                rf, seconds = _lane(
                    lambda: rfcheck_outcomes(compiled, model).outcomes
                )
                totals["rfcheck"] += seconds
                enum, seconds = _lane(
                    lambda: enumerate_outcomes(compiled, model).outcomes
                )
                totals["enumerator"] += seconds
                sat, seconds = _lane(
                    lambda: mine_sat_outcomes(compiled, model)
                )
                totals["sat"] += seconds
                assert rf == enum == sat, f"{name} @ {model}"
        return totals

    totals = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    benchmark.extra_info["rfcheck"] = {
        "workload": "litmus-catalog",
        "tests": len(compiled_tests),
        "models": models,
        "cells": len(compiled_tests) * len(models),
        "rfcheck_seconds": totals["rfcheck"],
        "enumerator_seconds": totals["enumerator"],
        "sat_seconds": totals["sat"],
        "speedup_vs_sat": (
            totals["sat"] / totals["rfcheck"]
            if totals["rfcheck"] > 0 else float("inf")
        ),
    }
