"""Automatic fence synthesis and minimization (``checkfence synthesize``).

The paper's Section 4.2/4.3 fence experiments were manual: remove fences,
watch tests FAIL, reinsert by hand until they PASS.  This module automates
the loop.  Every plausible fence position (each boundary after an
access-bearing statement, which covers every po-adjacent access pair and in
particular the catalog's hand-placed slots) is *instrumented* with a
candidate :class:`~repro.lsl.instructions.Fence` per partial fence kind.  A
candidate fence is guarded by a selector variable
(:meth:`repro.encoding.formula.EncodingContext.fence_selector`), so one
encoded formula represents the test under **every** subset of fences at
once: a subset ``F`` is sufficient exactly when the FAILing queries are
UNSAT under the assumptions ``{selector(f) : f in F}`` — with the other
selectors free, the solver switches unselected fences off itself.

The search runs on that single warm formula and its persistent incremental
backend:

1. **All-on probe.**  Assume every selector.  SAT means even full fencing
   cannot repair the cell (e.g. a ``-buggy`` variant): infeasible.
2. **Core-guided pruning.**  On UNSAT, ``failed_assumptions()`` returns a
   core; only selectors in the core can matter, so the working set shrinks
   from hundreds of candidates to the core in one solve.
3. **Destructive deletion.**  Drop candidates one at a time (most expensive
   first); every successful drop re-prunes through the new core.  The
   result is 1-minimal: dropping any single fence re-FAILs.
4. **Exact escalation (MaxSAT-style minimal correction).**  An implicit
   hitting-set loop: every SAT witness yields the set of fences it runs
   *without* (a correction set that any sufficient ``F`` must hit); iterate
   minimum-cost hitting set -> sufficiency test -> new correction set until
   the hitting set is sufficient (then it is globally cost-optimal) or the
   solve budget runs out (then the deletion result stands, ``optimal`` is
   False).

Catalog data types (:func:`synthesize_fences`, specified by the session's
mined observation set) and fuzz litmus programs (:func:`synthesize_litmus`,
specified by their SC outcomes) share one code path: probe, search,
1-minimality certificate, and a re-check of the program rebuilt with the
chosen fences as real fences by the plain assertion and inclusion checks.

Costs are per fence kind — ``store-store``/``load-load``/``load-store``
are cheap, ``store-load`` and ``full`` are the expensive barriers on real
hardware — so the search prefers e.g. two store-store fences over one
store-load when both repair the cell.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace

from repro.core.inclusion import (
    assertion_violation,
    run_assertion_check,
    run_inclusion_check,
)
from repro.core.specification import ObservationSet
from repro.encoding.formula import EncodedTest, encode_test
from repro.encoding.testprogram import CompiledTest, compile_test
from repro.lsl.instructions import (
    Atomic,
    Block,
    Call,
    Fence,
    FenceKind,
    Load,
    Statement,
    Store,
)
from repro.lsl.program import Program
from repro.memorymodel.base import MemoryModel, get_model

#: Relative cost of enabling one fence of each kind (store-load and full
#: barriers drain the store buffer on real hardware; the partial fences
#: are cheap).
FENCE_COSTS = {
    FenceKind.LOAD_LOAD: 1,
    FenceKind.LOAD_STORE: 1,
    FenceKind.STORE_STORE: 1,
    FenceKind.STORE_LOAD: 2,
    FenceKind.FULL: 3,
}

#: Candidate kinds offered at every slot.  The four partial kinds together
#: equal a full barrier, so all-on is the strongest fencing of the program
#: and ``FULL`` candidates would be redundant.
CANDIDATE_KINDS = (
    FenceKind.LOAD_LOAD,
    FenceKind.LOAD_STORE,
    FenceKind.STORE_LOAD,
    FenceKind.STORE_STORE,
)


class SynthesisError(RuntimeError):
    """Fence synthesis cannot run (no candidates, unknown model, ...)."""


@dataclass(frozen=True)
class CandidateFence:
    """One candidate fence: a program point (LSL source location) + kind."""

    label: str          # "<procedure>@<slot>:<kind>" — the selector label
    procedure: str      # procedure the slot lives in ("" for litmus threads)
    slot: int           # boundary index within the procedure (stable)
    kind: FenceKind
    before: str         # rendering of the statement just before the slot
    after: str          # rendering of the statement just after the slot

    @property
    def cost(self) -> int:
        return FENCE_COSTS[self.kind]

    def location(self) -> str:
        """The slot as an LSL source location."""
        where = f"{self.procedure}@{self.slot}" if self.procedure else f"@{self.slot}"
        return f'{where}: between `{self.before}` and `{self.after}`'

    def describe(self) -> str:
        return f'fence("{self.kind.value}") at {self.location()}'


# --------------------------------------------------------------- instrumenting


def _contains_access(stmt: Statement) -> bool:
    """Can this statement (sub)tree touch shared memory once inlined?
    ``Call`` is conservatively an access (the callee may load/store)."""
    if isinstance(stmt, (Load, Store, Call)):
        return True
    if isinstance(stmt, (Block, Atomic)):
        return any(_contains_access(s) for s in stmt.body)
    return False


def _instrument_body(
    body: list[Statement],
    procedure: str,
    counter: list[int],
    candidates: list[CandidateFence],
) -> list[Statement]:
    out: list[Statement] = []
    tail_has_access = [False] * (len(body) + 1)
    for index in range(len(body) - 1, -1, -1):
        tail_has_access[index] = (
            tail_has_access[index + 1] or _contains_access(body[index])
        )
    for index, stmt in enumerate(body):
        if isinstance(stmt, Block):
            out.append(
                Block(
                    stmt.tag,
                    _instrument_body(
                        stmt.body, procedure, counter, candidates
                    ),
                )
            )
        else:
            # Atomic bodies are left alone: their accesses already execute
            # atomically and in order, so an internal fence cannot change
            # the outcome set a slot around the block would not.
            out.append(stmt)
        # One slot after every access-bearing statement that still has an
        # access after it: this covers every po-adjacent access pair once
        # (boundaries between access-free statements would duplicate the
        # nearest such slot).
        if (
            index + 1 < len(body)
            and _contains_access(stmt)
            and tail_has_access[index + 1]
        ):
            slot = counter[0]
            counter[0] += 1
            for kind in CANDIDATE_KINDS:
                candidate = CandidateFence(
                    label=f"{procedure}@{slot}:{kind.value}",
                    procedure=procedure,
                    slot=slot,
                    kind=kind,
                    before=str(stmt),
                    after=str(body[index + 1]),
                )
                candidates.append(candidate)
                out.append(Fence(kind, candidate=candidate.label))
    return out


def _rebuild(program: Program, body_of) -> Program:
    """A copy of ``program`` whose procedures (in name order) get the body
    ``body_of(name, body)``; the original is not mutated."""
    rebuilt = Program(
        name=program.name,
        structs=dict(program.structs),
        globals=list(program.globals),
    )
    for name in sorted(program.procedures):
        proc = program.procedures[name]
        rebuilt.add_procedure(replace(proc, body=body_of(name, proc.body)))
    return rebuilt


def instrument_program(
    program: Program,
) -> tuple[Program, list[CandidateFence]]:
    """A copy of ``program`` with candidate fences at every slot.

    The original program is not mutated (statement objects are shared,
    statement lists are rebuilt).  Candidate labels name the procedure and
    a per-procedure slot index, so all inlined/unrolled copies of one
    source position share one selector and results map back to LSL source
    locations.
    """
    candidates: list[CandidateFence] = []
    instrumented = _rebuild(
        program,
        lambda name, body: _instrument_body(body, name, [0], candidates),
    )
    return instrumented, candidates


def apply_fences(program: Program, fences) -> Program:
    """A copy of ``program`` with the chosen candidate fences made
    unconditional (real) fences — the independent re-check artifact."""
    chosen = {fence.label for fence in fences}

    def strip(body: list[Statement]) -> list[Statement]:
        out: list[Statement] = []
        for stmt in body:
            if isinstance(stmt, Fence) and stmt.candidate is not None:
                if stmt.candidate in chosen:
                    out.append(Fence(stmt.kind))
                continue
            if isinstance(stmt, Block):
                out.append(Block(stmt.tag, strip(stmt.body)))
            elif isinstance(stmt, Atomic):
                out.append(Atomic(strip(stmt.body)))
            else:
                out.append(stmt)
        return out

    instrumented, _ = instrument_program(program)
    return _rebuild(instrumented, lambda _name, body: strip(body))


# -------------------------------------------------------------------- queries


@dataclass
class _Query:
    """One FAILing SAT query the fence set must turn UNSAT."""

    name: str                   # "<model>/assertion" or "<model>/inclusion"
    encoded: EncodedTest
    assumptions: list[int]      # circuit handles asserted alongside selectors

    def selector(self, label: str) -> int | None:
        return self.encoded.fence_selectors.get(label)


@dataclass
class SynthesisStatistics:
    """Search effort counters (benchmark JSON embeds this)."""

    candidates: int = 0
    solves: int = 0
    solve_seconds: float = 0.0
    core_size: int = 0          # working-set size after the all-on core
    deletion_solves: int = 0
    exact_solves: int = 0
    canonical_solves: int = 0
    correction_sets: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class SynthesisResult:
    """Outcome of one fence synthesis run."""

    implementation: str
    test: str
    models: list[str]
    feasible: bool                      # some fence set repairs the cell
    already_passes: bool                # no query FAILed to begin with
    fences: list[CandidateFence]
    cost: int
    optimal: bool                       # exact search proved cost-optimality
    verified_sufficient: bool           # independent concrete re-check PASSed
    verified_minimal: bool              # dropping any single fence re-FAILs
    failing_queries: list[str]
    stats: SynthesisStatistics
    notes: list[str] = field(default_factory=list)

    @property
    def labels(self) -> list[str]:
        return [fence.label for fence in self.fences]

    def as_dict(self) -> dict:
        return {
            "implementation": self.implementation,
            "test": self.test,
            "models": list(self.models),
            "feasible": self.feasible,
            "already_passes": self.already_passes,
            "fences": [
                {
                    "label": fence.label,
                    "kind": fence.kind.value,
                    "procedure": fence.procedure,
                    "slot": fence.slot,
                    "location": fence.location(),
                    "cost": fence.cost,
                }
                for fence in self.fences
            ],
            "cost": self.cost,
            "optimal": self.optimal,
            "verified_sufficient": self.verified_sufficient,
            "verified_minimal": self.verified_minimal,
            "failing_queries": list(self.failing_queries),
            "stats": self.stats.as_dict(),
            "notes": list(self.notes),
        }


# --------------------------------------------------------------- the search


class CoreGuidedSearch:
    """The assumption-driven search over one set of FAILing queries.

    Frontend-agnostic: catalog synthesis and litmus synthesis both reduce
    to "make these queries UNSAT by assuming a cheap selector subset".
    """

    def __init__(
        self,
        queries: list[_Query],
        candidates: list[CandidateFence],
        exact_budget: int = 60,
    ) -> None:
        self.queries = queries
        self.candidates = sorted(candidates, key=lambda c: c.label)
        self.by_label = {c.label: c for c in self.candidates}
        self.exact_budget = exact_budget
        self.stats = SynthesisStatistics(candidates=len(self.candidates))
        #: Correction sets: every sufficient set must intersect each.
        self._correction_sets: list[frozenset[str]] = []

    # ------------------------------------------------------------- plumbing

    def _cost(self, labels) -> int:
        return sum(self.by_label[label].cost for label in labels)

    def _sufficient(self, labels) -> tuple[bool, frozenset[str]]:
        """Is the fence set sufficient (all queries UNSAT under it)?

        Returns ``(True, core)`` with the union failed-assumption core
        restricted to selector labels, or ``(False, frozenset())`` after
        recording the witness's correction set.
        """
        label_set = frozenset(labels)
        core: set[str] = set()
        for query in self.queries:
            selector_of = {
                query.selector(label): label
                for label in sorted(label_set)
                if query.selector(label) is not None
            }
            start = time.perf_counter()
            satisfiable = query.encoded.solve(
                list(query.assumptions) + sorted(selector_of)
            )
            self.stats.solve_seconds += time.perf_counter() - start
            self.stats.solves += 1
            if satisfiable:
                self._record_correction_set(query, label_set)
                return False, frozenset()
            for handle in query.encoded.failed_assumption_handles():
                label = selector_of.get(handle)
                if label is not None:
                    core.add(label)
        # A conservative backend may report an empty or assumption-free
        # core; the assumed set itself is then the sound fallback.
        return True, frozenset(core) if core else label_set

    def _record_correction_set(self, query: _Query, assumed) -> None:
        """From a SAT witness: the candidates whose selectors the witness
        runs *without*.  Any sufficient set must enable at least one of
        them (else the witness survives that set too)."""
        lowering = query.encoded.ctx.lowering
        handles = {
            label: query.selector(label) for label in self.by_label
        }
        literals = {
            label: lowering.literal(handle)
            for label, handle in handles.items()
            if handle is not None
        }
        values = query.encoded._backend.values_of(
            {abs(lit) for lit in literals.values()}
        )
        off = frozenset(
            label
            for label, lit in literals.items()
            if label not in assumed
            and not (
                values.get(abs(lit), False) if lit > 0
                else not values.get(abs(lit), False)
            )
        )
        if off and off not in self._correction_sets:
            self._correction_sets.append(off)
            self.stats.correction_sets = len(self._correction_sets)

    # --------------------------------------------------------------- phases

    def run(self) -> tuple[bool, frozenset[str], bool]:
        """Returns ``(feasible, labels, optimal)``."""
        all_labels = frozenset(self.by_label)
        sufficient, core = self._sufficient(all_labels)
        if not sufficient:
            return False, frozenset(), False
        working = core
        self.stats.core_size = len(working)
        # The core is sufficient by construction only when it came from a
        # single query; a union over several queries is re-validated (and
        # conservative cores re-validated too).
        if working != all_labels:
            ok, boosted = self._sufficient(working)
            if not ok:
                working = all_labels
            else:
                working = boosted
        working = self._destructive_deletion(working)
        working, optimal = self._exact_search(working)
        canonical = self._canonicalize(working)
        if canonical != working and not optimal:
            # A swap can only make another element redundant when the set
            # was not proven cost-optimal; re-minimize in that case.
            canonical = self._destructive_deletion(canonical)
        return True, canonical, optimal

    def _destructive_deletion(self, working: frozenset[str]) -> frozenset[str]:
        """Drop candidates (most expensive first) until 1-minimal."""
        changed = True
        while changed:
            changed = False
            for candidate in sorted(
                (self.by_label[label] for label in working),
                key=lambda c: (-c.cost, c.label),
            ):
                if candidate.label not in working:
                    continue  # removed by an earlier core shrink
                trial = working - {candidate.label}
                before = self.stats.solves
                ok, core = self._sufficient(trial)
                self.stats.deletion_solves += self.stats.solves - before
                if ok:
                    working = core if core and core <= trial else trial
                    changed = True
        return working

    def _canonicalize(self, working: frozenset[str]) -> frozenset[str]:
        """Deterministic tie-break among equal-cost minimal sets: replace a
        chosen fence by a lexicographically-smaller candidate of the same
        or lower cost whenever the swap stays sufficient.  Different
        backends produce different (but equally valid) SAT witnesses and
        cores, which can steer the search to different optima; this pass
        makes the final set backend-independent whenever the optima are
        connected by single swaps (the parity tests pin that).

        Replacement candidates are drawn from the correction sets the
        removed fence hits: a working swap must cover exactly what the
        removed fence covered, so it shares a correction set with it.
        """
        changed = True
        while changed:
            changed = False
            for label in sorted(working, reverse=True):
                fence = self.by_label[label]
                pool: set[str] = set()
                for correction in self._correction_sets:
                    if label in correction:
                        pool |= correction
                for other in sorted(pool):
                    if other >= label or other in working:
                        continue
                    replacement = self.by_label.get(other)
                    if replacement is None or replacement.cost > fence.cost:
                        continue
                    trial = (working - {label}) | {other}
                    before = self.stats.solves
                    ok, _ = self._sufficient(trial)
                    self.stats.canonical_solves += self.stats.solves - before
                    if ok:
                        working = trial
                        changed = True
                        break
                if changed:
                    break
        return working

    def _exact_search(
        self, upper: frozenset[str]
    ) -> tuple[frozenset[str], bool]:
        """Implicit-hitting-set escalation: prove (or improve to) the
        cheapest sufficient set, within the solve budget (a budget of 0
        returns the 1-minimal ``upper`` unproven)."""
        upper_cost = self._cost(upper)
        budget = self.exact_budget
        while budget > 0:
            hitting = self._min_cost_hitting_set(upper_cost)
            if hitting is None:
                # Every hitting set of the known correction sets costs at
                # least as much as the incumbent: the incumbent is optimal.
                return upper, True
            if frozenset(hitting) == upper:
                return upper, True
            before = self.stats.solves
            ok, core = self._sufficient(frozenset(hitting))
            spent = self.stats.solves - before
            self.stats.exact_solves += spent
            budget -= spent
            if ok:
                result = core if core and core <= frozenset(hitting) else frozenset(hitting)
                # The hitting set is a lower bound over all sufficient
                # sets; a sufficient one is therefore optimal.
                return result, True
        return upper, False

    def _min_cost_hitting_set(self, upper_cost: int) -> list[str] | None:
        """Branch-and-bound minimum-cost hitting set over the correction
        sets, strictly cheaper than ``upper_cost`` (None if impossible).
        Deterministic: sets and elements are visited in sorted order."""
        sets = [sorted(s) for s in self._correction_sets]
        sets.sort(key=lambda s: (len(s), s))
        best: list[str] | None = None
        best_cost = upper_cost  # only strictly cheaper solutions count

        def search(index: int, chosen: list[str], cost: int) -> None:
            nonlocal best, best_cost
            if cost >= best_cost:
                return
            while index < len(sets) and any(
                label in chosen for label in sets[index]
            ):
                index += 1
            if index == len(sets):
                best, best_cost = list(chosen), cost
                return
            for label in sets[index]:
                chosen.append(label)
                search(index + 1, chosen, cost + self.by_label[label].cost)
                chosen.pop()

        search(0, [], 0)
        return best


# --------------------------------------------------- shared by both front ends


def _model_list(models) -> list[MemoryModel]:
    if isinstance(models, (str, MemoryModel)):
        models = [models]
    return [get_model(model) for model in models]


def _synthesize(
    implementation: str,
    test: str,
    models: list[MemoryModel],
    specification: ObservationSet,
    instrumented: CompiledTest,
    candidates: list[CandidateFence],
    fenced: Callable[[list[CandidateFence]], CompiledTest],
    backend_factory,
    check_assertions: bool,
    exact_budget: int,
) -> SynthesisResult:
    """The search both front ends share: probe the assertion and inclusion
    queries of ``instrumented`` under every model, search a fence set that
    turns the FAILing ones UNSAT, certify it 1-minimal on the warm
    formulas, and re-check ``fenced(fences)`` — the program rebuilt with
    the chosen fences as real fences — with the plain checks."""
    queries: list[_Query] = []
    stats = SynthesisStatistics(candidates=len(candidates))
    for model in models:
        encoded = encode_test(
            instrumented, model, backend_factory=backend_factory
        )
        encoded.expect_enumeration()  # many solves on one formula
        probes: list[_Query] = []
        if check_assertions and encoded.assertions:
            violation = assertion_violation(encoded)
            probes.append(
                _Query(f"{model.name}/assertion", encoded, [violation])
            )
        guard = encoded.not_in_guard(specification.observations)
        probes.append(_Query(f"{model.name}/inclusion", encoded, [guard]))
        # Baseline: with no selector assumed the solver switches every
        # candidate off, so this is exactly the plain check.  Fences only
        # remove executions, so queries that PASS bare stay PASSing under
        # any fence set and never need re-solving.
        for query in probes:
            start = time.perf_counter()
            if encoded.solve(query.assumptions):
                queries.append(query)
            stats.solve_seconds += time.perf_counter() - start
            stats.solves += 1

    model_names = [model.name for model in models]
    failing = [query.name for query in queries]
    if not queries:
        return SynthesisResult(
            implementation, test, model_names,
            feasible=True,
            already_passes=True,
            fences=[],
            cost=0,
            optimal=True,
            verified_sufficient=True,
            verified_minimal=True,
            failing_queries=[],
            stats=stats,
            notes=["every query already passes; no fences needed"],
        )

    feasible = False
    if candidates:
        search = CoreGuidedSearch(queries, candidates, exact_budget)
        search.stats = stats  # the probe solves count toward the search
        feasible, labels, optimal = search.run()
    if not feasible:
        return SynthesisResult(
            implementation, test, model_names,
            feasible=False,
            already_passes=False,
            fences=[],
            cost=0,
            optimal=False,
            verified_sufficient=False,
            verified_minimal=False,
            failing_queries=failing,
            stats=stats,
            notes=[
                "even enabling every candidate fence leaves a FAILing "
                "query: the failure is not a fence-repairable reordering "
                "(e.g. an algorithmic bug)"
                if candidates else "no candidate fence slots"
            ],
        )

    fences = sorted(
        (search.by_label[label] for label in labels), key=lambda c: c.label
    )
    verified_sufficient = _verify_concrete(
        fenced(fences), models, specification, backend_factory,
        check_assertions,
    )
    # 1-minimality certificate on the warm formulas: dropping any single
    # fence must re-FAIL some query.
    verified_minimal = all(
        not search._sufficient(labels - {fence.label})[0] for fence in fences
    )
    notes = []
    if not optimal:
        notes.append(
            "exact search exhausted its budget; the set is 1-minimal but "
            "may not be cost-optimal"
        )
    return SynthesisResult(
        implementation, test, model_names,
        feasible=True,
        already_passes=False,
        fences=fences,
        cost=sum(fence.cost for fence in fences),
        optimal=optimal,
        verified_sufficient=verified_sufficient,
        verified_minimal=verified_minimal,
        failing_queries=failing,
        stats=stats,
        notes=notes,
    )


def _verify_concrete(
    compiled: CompiledTest,
    models: list[MemoryModel],
    specification: ObservationSet,
    backend_factory,
    check_assertions: bool,
) -> bool:
    """Re-check a program compiled with the synthesized fences as
    unconditional fences — entirely independent of the selector
    machinery: the plain assertion and inclusion checks, on a fresh
    formula per model."""
    for model in models:
        encoded = encode_test(compiled, model, backend_factory=backend_factory)
        if check_assertions and not run_assertion_check(
            compiled, model, specification.labels, encoded=encoded
        ).passed:
            return False
        if not run_inclusion_check(
            compiled, model, specification, encoded=encoded
        ).passed:
            return False
    return True


# --------------------------------------------------------- catalog front end


def synthesize_fences(
    session,
    test,
    models,
) -> SynthesisResult:
    """Synthesize a minimal fence set turning FAILing (impl, test, model)
    cells into PASS, on a warm :class:`~repro.core.session.CheckSession`.

    ``models`` may be one model/name or a list; with several models the
    synthesized set repairs **all** of them at once (the formulas share the
    compiled instrumented test; each model gets its own incremental
    backend).
    """
    models = _model_list(models)
    if not models:
        raise SynthesisError("synthesize_fences needs at least one model")
    options = session.options

    # The specification comes from the *uninstrumented* program (fences are
    # no-ops under the serial model, so it would be identical anyway, but
    # the session cache makes this free across synthesize/check calls).
    specification: ObservationSet = session.specification(test)

    instrumented, candidates = instrument_program(session.program)
    if not candidates:
        raise SynthesisError(
            f"no candidate fence slots in {session.implementation.name!r} "
            "(no two accesses share a thread)"
        )

    def compile_program(program: Program) -> CompiledTest:
        return compile_test(
            session.implementation,
            test,
            loop_bounds=options.loop_bounds,
            default_bound=options.default_loop_bound,
            use_range_analysis=options.use_range_analysis,
            program=program,
        )

    return _synthesize(
        session.implementation.name,
        test.name,
        models,
        specification,
        compile_program(instrumented),
        candidates,
        lambda fences: compile_program(apply_fences(session.program, fences)),
        backend_factory=session.backend_factory,
        check_assertions=options.check_assertions,
        exact_budget=options.synthesis_budget,
    )


# ---------------------------------------------------------- litmus front end


def litmus_candidates(program) -> list[CandidateFence]:
    """The candidate fences of a fuzz litmus program, with labels matching
    :meth:`repro.fuzz.generator.FuzzProgram.compile` instrumentation."""
    candidates: list[CandidateFence] = []
    for thread_index, position in program.fence_slots():
        thread = program.threads[thread_index]
        for kind in CANDIDATE_KINDS:
            candidates.append(
                CandidateFence(
                    label=f"t{thread_index}@{position}:{kind.value}",
                    procedure=f"t{thread_index}",
                    slot=position,
                    kind=kind,
                    before=thread[position - 1].spec(),
                    after=thread[position].spec(),
                )
            )
    return candidates


def placements_of(fences) -> list[tuple[int, int, FenceKind]]:
    """Map synthesized litmus candidates back to ``(thread, position,
    kind)`` placements for :meth:`FuzzProgram.with_fences`."""
    return [
        (int(fence.procedure[1:]), fence.slot, fence.kind)
        for fence in fences
    ]


def synthesize_litmus(
    program,
    models,
    backend_factory=None,
    exact_budget: int = 60,
) -> SynthesisResult:
    """Synthesize a minimal fence set making a fuzz litmus program
    (:class:`repro.fuzz.generator.FuzzProgram`) SC-equivalent under every
    given model: the specification is the program's outcome set under
    ``sc``, and a fence set is sufficient when no execution under the
    model produces an outcome outside it."""
    models = _model_list(models)
    compiled = program.compile()
    specification = ObservationSet(
        labels=compiled.observation_labels(),
        observations=set(
            encode_test(
                compiled, get_model("sc"), backend_factory=backend_factory
            ).observations()
        ),
    )
    return _synthesize(
        "fuzz",
        program.spec(),
        models,
        specification,
        program.compile(candidate_kinds=CANDIDATE_KINDS),
        litmus_candidates(program),
        lambda fences: program.with_fences(placements_of(fences)).compile(),
        backend_factory=backend_factory,
        check_assertions=True,
        exact_budget=exact_budget,
    )


# ------------------------------------------------------------- fuzz smoke


@dataclass
class SmokeReport:
    """Result of a seeded fuzz-synthesis campaign."""

    budget: int
    seed: int
    checked: int = 0
    repaired: int = 0
    already_pass: int = 0
    oracle_checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        verdict = "ok" if self.ok else f"{len(self.failures)} failure(s)"
        return (
            f"fuzz-synthesis smoke: {self.checked} programs "
            f"(seed {self.seed}); {self.repaired} repaired, "
            f"{self.already_pass} already SC-equivalent, "
            f"{self.oracle_checked} oracle-confirmed; {verdict}"
        )


def fuzz_synthesis_smoke(budget: int, seed: int, models=("relaxed",)) -> SmokeReport:
    """Synthesize fences for ``budget`` seeded random litmus programs and
    cross-check every repair: the engine's own concrete re-verification
    must certify each set sufficient and 1-minimal, and — where the
    operational oracle supports the program — the fenced program's
    outcomes under the weakest requested model must be SC outcomes of
    the original.  Drives the CI smoke lane
    (``checkfence synthesize --fuzz-budget 100 --seed 1``)."""
    from repro.fuzz.generator import FuzzProgram, generate_corpus
    from repro.oracle import enumerate_outcomes

    report = SmokeReport(budget=budget, seed=seed)
    for generated in generate_corpus(seed, budget):
        threads = tuple(
            stripped
            for thread in generated.threads
            if (stripped := tuple(op for op in thread if op.kind != "fence"))
        )
        if not threads:
            continue
        program = FuzzProgram(threads=threads)
        spec = program.spec()
        report.checked += 1
        result = synthesize_litmus(program, list(models))
        if not result.feasible:
            report.failures.append(f"{spec!r}: no repairing fence set")
            continue
        if result.already_passes:
            report.already_pass += 1
            continue
        if not (result.verified_sufficient and result.verified_minimal):
            report.failures.append(
                f"{spec!r}: re-check failed for {result.labels} "
                f"(sufficient={result.verified_sufficient}, "
                f"minimal={result.verified_minimal})"
            )
            continue
        report.repaired += 1
        reference = enumerate_outcomes(program.compile(), "sc")
        if not reference.ok:
            continue
        fenced = program.with_fences(placements_of(result.fences))
        repaired = enumerate_outcomes(fenced.compile(), models[-1])
        if not repaired.ok:
            continue
        report.oracle_checked += 1
        extra = repaired.outcomes - reference.outcomes
        if extra:
            report.failures.append(
                f"{spec!r}: oracle found non-SC outcomes {sorted(extra)} "
                f"despite fence set {result.labels}"
            )
    return report
