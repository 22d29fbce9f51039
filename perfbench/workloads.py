"""The benchmark's four workloads.

Each workload is a closed loop with one client: the next check,
synthesis or fuzz cell starts only after the previous verdict, in this
one process, at ``jobs=1``.  A workload has two halves:

* ``build(seed, pass_index)`` is the set-up a command-line user pays on
  every run: lowering each implementation's C source (fresh
  :class:`CheckSession` objects, so no cache survives from an earlier
  pass) and building the symbolic tests or fuzz programs.  The seed only
  orders the work: the set of checks is the same for every seed, so two
  seeds differ by noise, not by how hard their inputs are.
* ``run(plan, deadline, tick)`` runs the verdicts, times each one,
  checks it against :mod:`answers`, prints one line per row, and returns
  the verdicts plus the exact counts the repeat check compares.  It calls
  ``tick`` between verdicts, outside their timing, so the run's
  :class:`refclock.RefClock` can sample the machine's speed.

Why each workload was chosen and what is out of scope is written down in
``README.md`` next to this file.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

import answers
from repro.core.checker import CheckOptions
from repro.core.session import CheckSession
from repro.datatypes.registry import category_of, get_implementation
from repro.fuzz import harness as fuzz_harness
from repro.fuzz.generator import generate_corpus
from repro.harness.catalog import get_test, test_names

#: Per-check wall-clock budget: over ten times the slowest row measured,
#: so a pathological regression shows up as a TIMEOUT verdict, not a hang.
CHECK_TIMEOUT_S = 60.0


def check_options() -> CheckOptions:
    """The default options plus the per-check timeout."""
    return CheckOptions(timeout=CHECK_TIMEOUT_S)


@dataclass
class Verdict:
    """One timed verdict and how it compared with the answer table."""

    key: str
    start: float
    end: float
    problem: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Plan:
    """Everything ``build`` prepared for one pass."""

    items: list
    sessions: dict = field(default_factory=dict)
    #: ``cache_stats`` of the sessions the pass already released.
    released: list = field(default_factory=list)

    def release(self, key) -> None:
        """Drop a session once its rows are done, keeping its counters: a
        session can keep its last formula and solver alive, and holding
        them to the end of the pass made peak memory depend on row order."""
        self.released.append(self.sessions.pop(key).cache_stats)

    def cache_stats(self) -> list[dict]:
        return self.released + [
            session.cache_stats for session in self.sessions.values()
        ]


@dataclass
class PassResult:
    verdicts: list[Verdict] = field(default_factory=list)
    #: key -> exact counts that must repeat whenever the key is run again.
    counts: dict[str, dict] = field(default_factory=dict)
    #: False when the run guard stopped the pass early.
    complete: bool = True


def _shuffled(items, seed: int, pass_index: int) -> list:
    items = list(items)
    random.Random(seed * 1000 + pass_index).shuffle(items)
    return items


def _record_verdict(out: PassResult, key: str, call, judge, tick):
    """Time one verdict, compare it with the answer table and record it.
    Returns ``(result, seconds, problem)``; ``result`` is None when the
    call raised, which counts as a failed verdict."""
    tick()
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # one broken verdict must not stop the run
        out.verdicts.append(
            Verdict(key, start, time.perf_counter(), f"error: {exc!r}")
        )
        return None, 0.0, ""
    end = time.perf_counter()
    problem = judge(result)
    out.verdicts.append(Verdict(key, start, end, problem))
    return result, end - start, problem


def _check_counts(result) -> dict:
    stats = result.stats
    return {
        "clauses": stats.cnf_clauses,
        "conflicts": stats.solver_conflicts,
        "propagations": stats.solver_propagations,
    }


class Fig10Large:
    """Fig. 10 rows under relaxed whose formulas engage the CNF
    preprocessor (over 50k clauses); one fresh session per row, as one
    ``checkfence check`` command would have."""

    name = "fig10-large"
    unit = "check"
    rows = (
        ("msn", "Tpc4"),
        ("ms2", "Tpc4"),
        ("lazylist", "Sacr"),
        ("lazylist-unfenced", "Sacr"),
    )
    model = "relaxed"

    def build(self, seed: int, pass_index: int) -> Plan:
        rows = _shuffled(self.rows, seed, pass_index)
        options = check_options()
        return Plan(
            items=[(impl, get_test(category_of(impl), test))
                   for impl, test in rows],
            sessions={impl: CheckSession(get_implementation(impl), options)
                      for impl, _ in rows},
        )

    def run(self, plan: Plan, deadline: float, tick) -> PassResult:
        out = PassResult()
        for impl, test in plan.items:
            if time.perf_counter() >= deadline:
                out.complete = False
                break
            key = f"{impl}/{test.name}@{self.model}"
            session = plan.sessions[impl]
            result, seconds, problem = _record_verdict(
                out, key, lambda: session.check(test, self.model),
                answers.check_verdict, tick,
            )
            plan.release(impl)
            if result is None:
                continue
            out.counts[key] = _check_counts(result)
            stats = result.stats
            print(
                f"row {key} {result.verdict} {seconds:.3f}s "
                f"clauses={stats.cnf_clauses} "
                f"conflicts={stats.solver_conflicts} "
                f"propagations={stats.solver_propagations} "
                f"preprocess={stats.solver_preprocess_seconds:.3f}s "
                f"encode={stats.encode_seconds:.3f}s"
                + (f" MISMATCH: {problem}" if problem else ""),
                flush=True,
            )
        return out


class CatalogSweep:
    """Five-model sweep over the small catalog, fenced and unfenced, with
    one session per implementation (compile and mining caches shared
    across the models of a pair, as ``checkfence sweep`` does)."""

    name = "catalog-sweep"
    unit = "check"
    bases = ("msn", "ms2", "harris", "lazylist", "snark")
    #: Small-catalog tests left out: lazylist Sar/Saa and snark Da cost
    #: more than the rest of their implementation together.
    dropped = {("lazylist", "Sar"), ("lazylist", "Saa"), ("snark", "Da")}

    def pairs(self) -> list[tuple[str, str]]:
        out = []
        for base in self.bases:
            tests = [
                test for test in test_names(category_of(base), "small")
                if (base, test) not in self.dropped
            ]
            for impl in (base, f"{base}-unfenced"):
                out.extend((impl, test) for test in tests)
        return out

    def build(self, seed: int, pass_index: int) -> Plan:
        pairs = _shuffled(self.pairs(), seed, pass_index)
        options = check_options()
        return Plan(
            items=[(impl, get_test(category_of(impl), test))
                   for impl, test in pairs],
            sessions={impl: CheckSession(get_implementation(impl), options)
                      for impl in sorted({impl for impl, _ in pairs})},
        )

    def run(self, plan: Plan, deadline: float, tick) -> PassResult:
        out = PassResult()
        pending = {impl: 0 for impl in plan.sessions}
        for impl, _ in plan.items:
            pending[impl] += 1
        for impl, test in plan.items:
            if time.perf_counter() >= deadline:
                out.complete = False
                break
            session = plan.sessions[impl]
            pending[impl] -= 1
            if not pending[impl]:
                plan.release(impl)
            cells = []
            for model in answers.MODELS:
                key = f"{impl}/{test.name}@{model}"
                result, seconds, problem = _record_verdict(
                    out, key, lambda: session.check(test, model),
                    answers.check_verdict, tick,
                )
                if result is None:
                    cells.append(f"{model}:ERROR")
                    continue
                out.counts[key] = _check_counts(result)
                cells.append(
                    f"{model}:{result.verdict}:{seconds:.3f}s"
                    + ("!" if problem else "")
                )
            print(f"pair {impl}/{test.name} " + " ".join(cells), flush=True)
        return out


class Synthesize:
    """``CheckSession.synthesize`` on the four pinned pairs under pso and
    relaxed, one fresh session per cell.  A pass synthesizes every cell
    ``rounds`` times, each round in its own order, and a cell counts at
    its median time.

    msn-unfenced/Ti2 (212 solves) and snark-unfenced/D0 (504 solves) are
    left out: D0 alone took 6 to 11 s, set most of the workload's time,
    and moved its figures by a fifth from run to run on a shared machine.
    """

    name = "synthesize"
    unit = "synthesized cell"
    cells = tuple(
        (impl, test, model)
        for impl, test in (
            ("msn-unfenced", "T0"),
            ("ms2-unfenced", "T0"),
            ("lazylist-unfenced", "Sac"),
            ("harris-unfenced", "Sac"),
        )
        for model in answers.REORDERING_MODELS
    )
    rounds = 2

    def build(self, seed: int, pass_index: int) -> Plan:
        options = check_options()
        items, sessions = [], {}
        for round_index in range(self.rounds):
            order = _shuffled(
                self.cells, seed, pass_index * self.rounds + round_index
            )
            for impl, test, model in order:
                slot = len(items)
                sessions[slot] = CheckSession(get_implementation(impl), options)
                items.append(
                    (slot, impl, get_test(category_of(impl), test), model)
                )
        return Plan(items=items, sessions=sessions)

    def run(self, plan: Plan, deadline: float, tick) -> PassResult:
        out = PassResult()
        for slot, impl, test, model in plan.items:
            if time.perf_counter() >= deadline:
                out.complete = False
                break
            key = f"{impl}/{test.name}@{model}"
            session = plan.sessions[slot]
            result, seconds, problem = _record_verdict(
                out, key, lambda: session.synthesize(test, [model]),
                lambda result: answers.check_synthesis(
                    impl, test.name, model, result
                ),
                tick,
            )
            plan.release(slot)
            if result is None:
                continue
            stats = result.stats
            out.counts[key] = {
                "solves": stats.solves,
                "correction_sets": stats.correction_sets,
                "core_size": stats.core_size,
                "fences": sorted(result.labels),
            }
            print(
                f"cell {key} {seconds:.3f}s fences={','.join(result.labels)} "
                f"cost={result.cost} optimal={result.optimal} "
                f"solves={stats.solves} "
                f"correction_sets={stats.correction_sets} "
                f"core_size={stats.core_size}"
                + (f" MISMATCH: {problem}" if problem else ""),
                flush=True,
            )
        return out


class FuzzDifferential:
    """``run_fuzz`` with all three outcome engines over the five models:
    thousands of tiny formulas, where encoding, backend construction and
    enumeration dominate and search is negligible.

    One pass runs ``campaigns`` campaigns of ``budget`` programs each,
    drawn from the fuzz seeds ``fuzz_seed * 1000 + i``; the run's seed
    only orders the campaigns.  Program cost is heavy-tailed (a 600-program
    corpus from one seed can need a fifth more enumeration than one from
    another seed), so a corpus drawn from the run's seed would move every
    metric by itself.
    """

    name = "fuzz-differential"
    unit = "fuzz (program, model) cell"
    campaigns = 5
    budget = 100
    engines = "all"

    def __init__(self, fuzz_seed: int) -> None:
        self.fuzz_seed = fuzz_seed

    def build(self, seed: int, pass_index: int) -> Plan:
        seeds = [self.fuzz_seed * 1000 + i for i in range(self.campaigns)]
        # Each campaign regenerates its corpus from its seed; building the
        # corpora here is the program-building part of set-up, and lets
        # the run confirm the campaign checked exactly these programs.
        return Plan(items=[
            (fuzz_seed, [p.spec() for p in generate_corpus(fuzz_seed, self.budget)])
            for fuzz_seed in _shuffled(seeds, seed, pass_index)
        ])

    def run(self, plan: Plan, deadline: float, tick) -> PassResult:
        out = PassResult()
        for fuzz_seed, specs in plan.items:
            if time.perf_counter() >= deadline:
                out.complete = False
                break
            self._campaign(fuzz_seed, specs, out, tick)
        return out

    def _campaign(self, fuzz_seed, specs, out: PassResult, tick) -> None:
        key = f"campaign seed={fuzz_seed}"
        tick()
        last = [time.perf_counter()]

        def progress(_done, _total, cell_result) -> None:
            # Cells run back to back, so a cell's time is the gap since the
            # previous cell finished (the first also pays corpus generation).
            now = time.perf_counter()
            cell = cell_result.cell
            problem = ""
            if not cell_result.ok or cell_result.notes:
                problem = cell_result.verdict
            out.verdicts.append(
                Verdict(f"{cell.test}@{cell.model}", last[0], now, problem)
            )
            tick()
            last[0] = time.perf_counter()

        try:
            campaign = fuzz_harness.run_fuzz(
                self.budget, fuzz_seed, models=answers.MODELS, jobs=1,
                options=check_options(), progress=progress, shrink=False,
                engines=self.engines,
            )
        except Exception as exc:  # one broken campaign must not stop the run
            now = time.perf_counter()
            out.verdicts.append(Verdict(key, now, now, f"error: {exc!r}"))
            return
        problem = answers.check_fuzz_campaign(
            campaign, self.budget, answers.MODELS
        )
        if campaign.specs != specs:
            problem = "campaign corpus differs from the one built in set-up"
        if problem:
            now = time.perf_counter()
            out.verdicts.append(Verdict(key, now, now, problem))
        totals = {"cells": campaign.cells_checked, "outcomes": 0}
        for cell_result in campaign.matrix.results:
            for engine, payload in cell_result.stats.get("engines", {}).items():
                totals["outcomes"] += payload.get("outcomes") or 0
                for stat, value in payload.get("stats", {}).items():
                    name = f"{engine}.{stat}"
                    totals[name] = totals.get(name, 0) + value
        out.counts[key] = totals
        print(f"campaign {campaign.summary()}", flush=True)


def get_workload(name: str, fuzz_seed: int):
    """The workload called ``name``; ``fuzz_seed`` draws the fuzz corpus."""
    workloads = (
        Fig10Large(), CatalogSweep(), Synthesize(), FuzzDifferential(fuzz_seed),
    )
    return {workload.name: workload for workload in workloads}[name]
