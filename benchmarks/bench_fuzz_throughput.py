"""Differential-fuzzer throughput: programs and (program, model) cells per
second, single process.

Every cell runs the whole pipeline twice — the explicit-state enumerator
and an incremental mine-and-block loop on the SAT encoding — so this is a
trajectory for the compile, encode, solve *and* oracle hot paths at once.
The JSON (``--benchmark-json``) embeds the campaign numbers under
``extra_info["fuzz"]``; re-run with ``CHECKFENCE_JOBS>1`` on multicore
hardware for the scaled figure.
"""

from repro.fuzz import run_fuzz

_BUDGET = 60
_SEED = 1


def test_fuzz_throughput(benchmark):
    result = benchmark.pedantic(
        run_fuzz,
        kwargs={"budget": _BUDGET, "seed": _SEED},
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info["fuzz"] = {
        "budget": _BUDGET,
        "seed": _SEED,
        "programs": len(result.specs),
        "cells": result.cells_checked,
        "models": list(result.models),
        "programs_per_second": result.programs_per_second,
        "cells_per_second": result.cells_per_second,
        "divergences": len(result.divergences),
        "inconclusive": len(result.inconclusive),
        "jobs": result.matrix.jobs,
    }
    assert result.ok, [d.description for d in result.divergences]
    assert result.cells_checked == len(result.specs) * len(result.models)
