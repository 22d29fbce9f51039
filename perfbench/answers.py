"""Hand-written answer table for the benchmark's verdicts.

Nothing here is derived from the checker under test: the expectations
come from the paper (Section 4.2: the hand-fenced implementations are
correct on every model, their unfenced variants break once stores may
be reordered) and from the pinned canonical fence sets of the fence
synthesis experiment.
"""

from __future__ import annotations

#: Models the benchmark sweeps, weakest ordering last.
MODELS = ("serial", "sc", "tso", "pso", "relaxed")

#: Models on which an unfenced variant loses the store-store or
#: load-load ordering its algorithm relies on.
REORDERING_MODELS = ("pso", "relaxed")

#: Unfenced (implementation, test) pairs that still PASS on every model:
#: with one enqueue pre-loaded, the two-lock queue's Ti2 never publishes
#: a node before its fields are written.
UNFENCED_PASSES_EVERYWHERE = {("ms2-unfenced", "Ti2")}

#: Canonical fence sets of the four pinned synthesis pairs, per model.
CANONICAL_FENCES = {
    ("msn-unfenced", "T0", "pso"): {"enqueue@0:store-store"},
    ("msn-unfenced", "T0", "relaxed"): {
        "dequeue@1:load-load", "enqueue@6:store-store",
    },
    ("ms2-unfenced", "T0", "pso"): {"enqueue@0:store-store"},
    ("ms2-unfenced", "T0", "relaxed"): {
        "dequeue@2:load-load", "enqueue@0:store-store",
    },
    ("lazylist-unfenced", "Sac", "pso"): {"add@10:store-store"},
    ("lazylist-unfenced", "Sac", "relaxed"): {
        "add@10:store-store", "contains@1:load-load",
    },
    ("harris-unfenced", "Sac", "pso"): {"add@6:store-store"},
    ("harris-unfenced", "Sac", "relaxed"): {
        "add@6:store-store", "contains@1:load-load",
    },
}


def expected_verdict(implementation: str, test: str, model: str) -> str:
    """PASS or FAIL for one catalog check."""
    if not implementation.endswith("-unfenced"):
        return "PASS"
    if (implementation, test) in UNFENCED_PASSES_EVERYWHERE:
        return "PASS"
    return "FAIL" if model in REORDERING_MODELS else "PASS"


def check_verdict(result) -> str:
    """Compare one :class:`CheckResult` with the table; "" when it
    matches, otherwise what is wrong."""
    expected = expected_verdict(
        result.implementation, result.test, result.memory_model
    )
    if result.verdict != expected:
        return f"verdict {result.verdict}, expected {expected}"
    if expected == "FAIL" and result.counterexample is None:
        return "FAIL without a counterexample trace"
    return ""


def check_synthesis(implementation: str, test: str, model: str, result) -> str:
    """Compare one synthesis result with the table; "" when it matches."""
    if not result.feasible or result.already_passes:
        return (
            f"feasible={result.feasible} already_passes={result.already_passes}"
        )
    if not (result.verified_sufficient and result.verified_minimal):
        return (
            f"verified_sufficient={result.verified_sufficient} "
            f"verified_minimal={result.verified_minimal}"
        )
    canonical = CANONICAL_FENCES.get((implementation, test, model))
    if canonical is not None:
        if set(result.labels) != canonical:
            return f"fences {sorted(result.labels)}, expected {sorted(canonical)}"
        if not result.optimal:
            return "pinned pair not proven optimal"
    return ""


def check_fuzz_campaign(campaign, budget: int, models) -> str:
    """A differential campaign must compare every cell and agree on all."""
    problems = []
    expected_cells = budget * len(models)
    if campaign.cells_checked != expected_cells:
        problems.append(f"{campaign.cells_checked}/{expected_cells} cells")
    for label, count in (
        ("divergences", campaign.cells_diverged),
        ("inconclusive", campaign.cells_inconclusive),
        ("degraded", campaign.cells_degraded),
        ("errors", len(campaign.matrix.errors)),
    ):
        if count:
            problems.append(f"{count} {label}")
    return ", ".join(problems)
