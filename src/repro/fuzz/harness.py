"""The differential fuzzing campaign: generate, shard, compare, shrink.

A campaign draws ``budget`` distinct programs from one seed, crosses them
with the selected memory models, and runs every (program, model) cell
through the PR-2 worker-pool matrix (:mod:`repro.harness.matrix`) — each
cell compares the operational enumerator against the SAT encoding via
:func:`repro.oracle.differ.differential_check`.  Sharding by test keeps one
compiled program per shard, so all five models reuse the compilation; with
``jobs>1`` programs fan out across worker processes exactly like catalog
checks do.

Divergent cells are re-checked in the parent and *shrunk*: operations and
threads are greedily removed while the divergence persists, so the reported
reproducer (the spec string — replayable with ``checkfence oracle --spec``)
is minimal.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.fuzz.generator import FuzzConfig, FuzzProgram, generate_corpus
from repro.harness.matrix import (
    FUZZ_KIND,
    MatrixCell,
    MatrixResult,
    run_matrix,
)
from repro.memorymodel.base import get_model
from repro.oracle.differ import (
    DEFAULT_ENGINES,
    DifferentialReport,
    differential_check,
    parse_engines,
)
from repro.sat.backend import BackendFactory, make_backend_factory

#: Memory models a campaign covers by default (all five of the paper).
DEFAULT_MODELS = ("serial", "sc", "tso", "pso", "relaxed")

#: Compiled-program cache: workers see the same program for every model of
#: a shard; keep a small keyed cache instead of a session object.
_COMPILED_CACHE: dict[str, object] = {}
_COMPILED_CACHE_LIMIT = 64


def compiled_fuzz_program(spec: str):
    """Parse and compile a fuzz spec, with a per-process cache."""
    cached = _COMPILED_CACHE.get(spec)
    if cached is None:
        if len(_COMPILED_CACHE) >= _COMPILED_CACHE_LIMIT:
            _COMPILED_CACHE.clear()
        cached = FuzzProgram.parse(spec).compile()
        _COMPILED_CACHE[spec] = cached
    return cached


def fuzz_cells(specs, models, engines=None) -> list[MatrixCell]:
    """One :data:`FUZZ_KIND` matrix cell per (program spec, memory model).

    The implementation column carries the engine selection joined by
    ``+`` (``enumerator+sat`` by default), which is how it travels to pool
    workers; ``+``, not ``,``, keeps the cell key usable in a
    ``CHECKFENCE_FAULT`` list.
    """
    model_names = [get_model(m).name for m in models]
    implementation = "+".join(parse_engines(engines))
    return [
        MatrixCell(implementation, spec, model, kind=FUZZ_KIND)
        for spec in specs
        for model in model_names
    ]


def run_fuzz_cell(cell: MatrixCell, options) -> "CellResult":
    """Differentially check one (program, model) cell.

    Called by the matrix executor (``_Runner.run_cell`` in
    :mod:`repro.harness.matrix`) inside its error containment, so
    exceptions here become per-cell errors, not crashed shards; it also
    times the cell.
    """
    from repro.harness.matrix import CellResult

    compiled = compiled_fuzz_program(cell.test)
    report = differential_check(
        compiled, cell.model,
        backend_factory=make_backend_factory(options.solver_backend),
        name=cell.test,
        engines=parse_engines(cell.implementation.split("+")),
    )
    notes = []
    if report.inconclusive:
        notes.append(f"inconclusive: {report.reason}")
    stats = {
        "engines": {
            name: result.as_dict()
            for name, result in report.engine_results.items()
        },
    }
    return CellResult(
        cell=cell,
        passed=report.ok,
        counterexample=report.describe() if report.diverged else "",
        notes=notes,
        stats=stats,
    )


# ---------------------------------------------------------------- shrinking


def shrink_divergence(
    program: FuzzProgram,
    model: str,
    backend_factory: BackendFactory | None = None,
    max_rounds: int = 100,
    engines=None,
) -> tuple[FuzzProgram, DifferentialReport]:
    """Greedily minimize a diverging program, keeping the divergence.

    Returns the smallest program found and its (still diverging) report.
    """
    def report_for(candidate: FuzzProgram) -> DifferentialReport:
        return differential_check(
            candidate.compile(), model, backend_factory=backend_factory,
            name=candidate.spec(), engines=engines,
        )

    current = report_for(program)
    if not current.diverged:
        return program, current
    for _ in range(max_rounds):
        for candidate in program.shrink_candidates():
            try:
                candidate_report = report_for(candidate)
            except Exception:
                continue
            if candidate_report.diverged:
                program, current = candidate, candidate_report
                break
        else:
            break
    return program, current


# ----------------------------------------------------------------- campaign


@dataclass
class FuzzDivergence:
    """One confirmed engine disagreement, in replayable form.

    ``pairs`` carries every diverging engine pair with direction (see
    :meth:`DifferentialReport.pair_divergences`).
    """

    spec: str
    model: str
    shrunk_spec: str
    description: str
    pairs: list[dict] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "spec": self.spec,
            "model": self.model,
            "shrunk_spec": self.shrunk_spec,
            "description": self.description,
            "pairs": [
                {
                    "first": pair["first"],
                    "second": pair["second"],
                    "only_in_first": [list(o) for o in pair["only_in_first"]],
                    "only_in_second": [list(o) for o in pair["only_in_second"]],
                }
                for pair in self.pairs
            ],
        }


@dataclass
class FuzzCampaignResult:
    """Everything one fuzzing campaign produced."""

    seed: int
    budget: int
    models: list[str]
    specs: list[str]
    matrix: MatrixResult
    divergences: list[FuzzDivergence] = field(default_factory=list)
    inconclusive: list[dict] = field(default_factory=list)
    degraded: list[dict] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    engines: tuple[str, ...] = DEFAULT_ENGINES

    @property
    def ok(self) -> bool:
        """No divergences, no errors — and the campaign actually compared
        something: a run where *every* cell came back inconclusive never
        performed a single differential comparison and must not read as a
        passing check (e.g. in the CI fuzz-smoke gate)."""
        if self.divergences or self.matrix.errors:
            return False
        if self.cells_checked and len(self.inconclusive) == self.cells_checked:
            return False
        return True

    @property
    def shortfall(self) -> int:
        """How many requested programs the generator could not produce
        (distinct-program space or the dedup attempt limit exhausted)."""
        return max(0, self.budget - len(self.specs))

    @property
    def cells_checked(self) -> int:
        return len(self.matrix.results)

    @property
    def cells_inconclusive(self) -> int:
        """Cells where at least one engine reached no verdict — these
        compared nothing and are *not* agreements."""
        return len(self.inconclusive)

    @property
    def cells_diverged(self) -> int:
        return len(self.divergences)

    @property
    def cells_degraded(self) -> int:
        """Cells that hit a resource budget or crashed out of their
        retries (TIMEOUT/OOM/CRASHED) — no comparison happened, and unlike
        inconclusive cells the engines never even ran to completion."""
        return len(self.degraded)

    @property
    def cells_compared(self) -> int:
        """Cells that produced a real multi-engine verdict (agree or
        diverge) — the denominator the campaign's confidence rests on."""
        return sum(
            1 for result in self.matrix.results
            if not result.error and not result.notes
        )

    @property
    def programs_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return len(self.specs) / self.elapsed_seconds

    @property
    def cells_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.cells_checked / self.elapsed_seconds

    def summary(self) -> str:
        programs = f"{len(self.specs)} programs"
        if self.shortfall:
            # Never let a restricted knob shrink coverage silently.
            programs += f" (budget {self.budget}: {self.shortfall} short)"
        line = (
            f"fuzz: {programs} x "
            f"{len(self.models)} models = {self.cells_checked} cells "
            f"(engines {'/'.join(self.engines)}, "
            f"seed {self.seed}, jobs={self.matrix.jobs}) in "
            f"{self.elapsed_seconds:.2f}s "
            f"({self.programs_per_second:.1f} programs/s); "
            f"{self.cells_compared} compared, "
            f"{len(self.divergences)} divergences, "
            f"{len(self.inconclusive)} inconclusive"
        )
        if self.degraded:
            counts: dict[str, int] = {}
            for entry in self.degraded:
                verdict = entry.get("verdict", "DEGRADED")
                counts[verdict] = counts.get(verdict, 0) + 1
            line += ", " + ", ".join(
                f"{count} {verdict}" for verdict, count in sorted(counts.items())
            )
        if self.cells_checked and len(self.inconclusive) == self.cells_checked:
            line += " — EVERY cell inconclusive: nothing was compared"
        if self.matrix.errors:
            line += f", {len(self.matrix.errors)} ERRORS"
        store_hits = self.matrix.cache_totals().get("store_hits")
        if store_hits:
            line += f"; {store_hits} store hits"
        return line

    def as_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "models": list(self.models),
            "engines": list(self.engines),
            "programs": len(self.specs),
            "shortfall": self.shortfall,
            "cells": self.cells_checked,
            "cells_compared": self.cells_compared,
            "cells_diverged": self.cells_diverged,
            "cells_inconclusive": self.cells_inconclusive,
            "cells_degraded": self.cells_degraded,
            "degraded": list(self.degraded),
            "elapsed_seconds": self.elapsed_seconds,
            "programs_per_second": self.programs_per_second,
            "cells_per_second": self.cells_per_second,
            "ok": self.ok,
            "divergences": [d.as_dict() for d in self.divergences],
            "inconclusive": list(self.inconclusive),
            "matrix": self.matrix.as_dict(),
        }


def run_fuzz(
    budget: int,
    seed: int,
    models=DEFAULT_MODELS,
    config: FuzzConfig | None = None,
    jobs: int | None = None,
    options=None,
    progress=None,
    shrink: bool = True,
    engines=None,
) -> FuzzCampaignResult:
    """Run one differential fuzzing campaign.

    ``budget`` distinct programs are drawn from ``seed`` and checked under
    every model in ``models``; any divergence is re-confirmed in the parent
    process and (when ``shrink``) minimized.  ``jobs`` selects the matrix
    pool exactly as for ``checkfence matrix``; ``engines``
    selects which consistency engines each cell compares (anything
    :func:`repro.oracle.differ.parse_engines` accepts).  The corpus is
    regenerated deterministically from ``seed``, so rerunning a killed
    campaign with ``options.store`` on re-creates the identical cells and
    the store serves every one that finished.
    """
    from repro.core.checker import CheckOptions

    started = time.perf_counter()
    options = options if options is not None else CheckOptions()
    model_names = [get_model(m).name for m in models]
    engine_names = parse_engines(engines)
    programs = generate_corpus(seed, budget, config)
    specs = [program.spec() for program in programs]
    matrix = run_matrix(
        fuzz_cells(specs, model_names, engines=engine_names),
        jobs=jobs,
        options=options,
        progress=progress,
    )
    divergences: list[FuzzDivergence] = []
    inconclusive: list[dict] = []
    degraded: list[dict] = []
    for cell_result in matrix.results:
        if cell_result.degraded:
            # No verdict was produced (TIMEOUT/OOM/CRASHED); neither an
            # agreement, a divergence, nor an inconclusive comparison.
            degraded.append({
                "spec": cell_result.cell.test,
                "model": cell_result.cell.model,
                "verdict": cell_result.degraded,
                "notes": list(cell_result.notes),
            })
            continue
        if cell_result.error:
            continue
        if cell_result.notes:
            inconclusive.append({
                "spec": cell_result.cell.test,
                "model": cell_result.cell.model,
                "notes": list(cell_result.notes),
            })
            continue
        if cell_result.passed:
            continue
        # Re-confirm in-process (the worker only shipped a description)
        # and shrink to a minimal reproducer.
        program = FuzzProgram.parse(cell_result.cell.test)
        backend_factory = make_backend_factory(options.solver_backend)
        if shrink:
            program, report = shrink_divergence(
                program, cell_result.cell.model,
                backend_factory=backend_factory,
                engines=engine_names,
            )
        else:
            report = differential_check(
                program.compile(), cell_result.cell.model,
                backend_factory=backend_factory, name=program.spec(),
                engines=engine_names,
            )
        if report.diverged:
            description = report.describe()
        else:
            # A worker saw a divergence this process cannot reproduce
            # (e.g. a flaky external backend).  Still fail the campaign,
            # but say what actually happened instead of reporting an
            # "agreeing" divergence with empty outcome diffs.
            description = (
                "reported by a worker but not reproduced in the parent "
                f"re-check: {cell_result.counterexample or cell_result.cell.key}"
            )
        divergences.append(FuzzDivergence(
            spec=cell_result.cell.test,
            model=cell_result.cell.model,
            shrunk_spec=program.spec(),
            description=description,
            pairs=report.pair_divergences(),
        ))
    return FuzzCampaignResult(
        seed=seed,
        budget=budget,
        models=model_names,
        specs=specs,
        matrix=matrix,
        divergences=divergences,
        inconclusive=inconclusive,
        degraded=degraded,
        elapsed_seconds=time.perf_counter() - started,
        engines=engine_names,
    )
