"""In-process CNF simplification (SatELite-style preprocessing).

The gate builder :class:`repro.sat.circuit.Circuit` mints a fresh variable
per gate, so a large fraction of the variables that reach the solver are
*functionally defined*: they occur in exactly the clauses that define them
plus a handful of uses, which is the textbook target of the
SatELite/MiniSat preprocessing lineage.  This module implements that
preprocessing between the encoder's CNF and the solver:

* **unit propagation** to fixpoint (root-level facts are applied and
  removed from every clause);
* **pure-literal elimination** (a variable occurring with one polarity is
  assigned that polarity and its clauses dropped — handled as a variable
  elimination with an empty resolvent set, so reconstruction and
  reinstatement work uniformly);
* **equivalent-literal substitution**: strongly connected components of the
  binary implication graph are collapsed onto one representative;
* **subsumption** and **self-subsuming resolution**, driven by occurrence
  lists and 64-bit clause signatures;
* **bounded variable elimination** (clause distribution), accepted only
  when the resolvent set is no larger than the clauses it replaces.

Everything the simplifier removes is recorded on a **model-reconstruction
stack**, so a model of the simplified formula is rebuilt into a model of
the *original* formula before anything downstream decodes it.

Incrementality and the frozen-set contract
------------------------------------------

The checking pipeline keeps adding clauses after the first solve (blocking
clauses during outcome mining, guard definitions, the clauses of gates
built for later assumptions).  Two mechanisms keep that sound:

* a **frozen set** of variables that outside code will mention again
  (observation-slot bits, assumption/guard handles; memory-order variables
  and reads-from selectors stay out: counterexample decoding reads them
  from the reconstructed model, see
  :meth:`repro.encoding.formula.EncodedTest.frozen_variables`).  Frozen
  variables are never eliminated, never pure-literal assigned and never
  substituted away; they may still be *fixed* by unit propagation, which
  is a root-level consequence and therefore survives any future clause
  additions.
* **reinstatement**: if an incoming clause or assumption mentions an
  eliminated variable anyway, the clauses removed at its elimination are
  replayed back into the solver (recursively, since they may mention
  variables eliminated later), restoring full logical strength before the
  new clause lands.  The frozen set keeps the common paths cheap; the
  reinstatement path makes the exotic ones correct.

Incremental clauses and assumptions are *mapped through the live
simplified state* (substitutions and fixed values applied, satisfied
clauses dropped, new units recorded) rather than bypassing it, so the
solver never sees a literal the preprocessor already resolved.

:class:`SimplifyingBackend` wraps any :class:`repro.sat.backend`
backend with this machinery and additionally *compacts* the variable
space: surviving variables are renumbered densely for the inner solver,
which shrinks the inner solver's per-variable structures.
:func:`repro.sat.backend.make_backend_factory` stacks it only when
``CHECKFENCE_SIMPLIFY`` forces it in, and then it preprocesses every
formula: the pass is pure Python, so on most formulas it costs more than
the native kernel's search it saves, and it stays an escape hatch for the
few it pays on.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import asdict, dataclass, fields, replace
from typing import Iterable, Sequence

from repro.core import limits
from repro.sat.solver import SolverStats


@dataclass
class SimplifyStats:
    """Counters produced by one preprocessing run (plus the incremental
    additions mapped through it afterwards)."""

    #: Variables removed by bounded variable elimination or pure literals.
    vars_eliminated: int = 0
    #: Clauses deleted by (self-)subsumption.
    clauses_subsumed: int = 0
    #: Variables substituted away by equivalent-literal merging.
    equiv_merged: int = 0
    #: Root-level facts discovered by unit propagation.
    units_fixed: int = 0
    #: Of ``vars_eliminated``, how many were pure literals.
    pure_literals: int = 0
    #: Literals removed from clauses by self-subsuming resolution.
    literals_strengthened: int = 0
    #: Eliminated variables replayed back in (frozen-set misses).
    vars_reinstated: int = 0
    clauses_before: int = 0
    clauses_after: int = 0
    vars_before: int = 0
    vars_after: int = 0
    preprocess_seconds: float = 0.0

    def as_dict(self) -> dict:
        return asdict(self)

    @property
    def clause_reduction(self) -> float:
        """Fraction of clauses removed by preprocessing (0.0 when it never
        ran or removed nothing)."""
        if self.clauses_before <= 0:
            return 0.0
        return 1.0 - self.clauses_after / self.clauses_before


#: The preprocessing counters a :class:`~repro.sat.solver.SolverStats`
#: also carries: every field the two records share.
_SOLVER_STATS_SHARED = tuple(
    f.name for f in fields(SimplifyStats)
    if f.name in {g.name for g in fields(SolverStats)}
)


class SimplifyError(RuntimeError):
    """Internal invariant violation in the simplifier."""


#: Bounded-variable-elimination limits: a variable is only considered when
#: its total occurrence count and the product of its polarity counts are
#: small (SatELite's "clause distribution" heuristic), and an elimination
#: is only committed when the non-tautological resolvents do not outnumber
#: the clauses they replace and none of them is longer than _BVE_MAX_LEN.
_BVE_MAX_OCCS = 20
_BVE_MAX_PRODUCT = 80
_BVE_MAX_LEN = 16
#: Self-subsuming resolution is only attempted from clauses this short
#: (Tseitin clauses are short; long clauses rarely strengthen anything)
#: and against occurrence lists this small (popular literals would make
#: the quadratic scan dominate the whole preprocessing run).
_SSR_MAX_LEN = 8
_SSR_MAX_OCCS = 30
#: Backward subsumption skips clauses whose least-common literal still
#: occurs more often than this (the scan would be near-linear in the
#: formula for no measurable reduction).
_SUBSUME_MAX_OCCS = 400


def _sig(lits: Iterable[int]) -> int:
    """64-bit Bloom signature of a clause (for subsumption filtering)."""
    signature = 0
    for lit in lits:
        signature |= 1 << (((lit << 1) ^ (lit >> 63)) & 63)
    return signature


class Simplifier:
    """The live preprocessing state shared by a :class:`SimplifyingBackend`.

    The lifecycle is: buffer clauses, :meth:`preprocess` once (everything
    before the first solve), then map every later clause through
    :meth:`map_clause` and every assumption through :meth:`map_literal`
    (as :meth:`SimplifyingBackend.solve` does).  Models of the simplified
    formula are rebuilt with :meth:`reconstruct`.
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self.frozen: set[int] = set()
        #: var -> root-level value (True/False).
        self.fixed: dict[int, bool] = {}
        #: var -> signed representative literal (fully resolved at the time
        #: of entry; map_literal chases chains that form later).
        self.subst: dict[int, int] = {}
        #: var -> clauses removed at its elimination (original literals,
        #: post-substitution), still needed for reconstruction/reinstatement.
        self.eliminated: dict[int, list[tuple[int, ...]]] = {}
        #: Chronological reconstruction stack: ("elim", var) / ("subst", var).
        self.stack: list[tuple[str, int]] = []
        self.unsat = False
        self.stats = SimplifyStats()
        self.preprocessed = False
        # Transient working state (only live during preprocess()).
        self._clauses: list[list[int] | None] = []
        self._occs: list[list[int]] = []
        #: Bumped whenever a clause becomes binary; the equivalence pass
        #: is skipped when no new implications appeared since it last ran.
        self._binary_epoch = 0
        self._equiv_seen_epoch = -1

    # ------------------------------------------------------------- plumbing

    def ensure_vars(self, num_vars: int) -> None:
        self.num_vars = max(self.num_vars, num_vars)

    def freeze(self, variables: Iterable[int]) -> None:
        self.frozen.update(variables)

    def is_eliminated(self, var: int) -> bool:
        return var in self.eliminated

    def map_literal(self, lit: int) -> int | bool:
        """Resolve a literal through substitutions and fixed values.

        Returns the mapped literal, or True/False when the literal is a
        root-level constant.  Eliminated variables are returned as-is —
        callers must reinstate them first (see SimplifyingBackend).
        """
        var = lit if lit > 0 else -lit
        sign = lit > 0
        while var in self.subst:
            rep = self.subst[var]
            sign = sign == (rep > 0)
            var = rep if rep > 0 else -rep
        value = self.fixed.get(var)
        if value is not None:
            return value == sign
        return var if sign else -var

    # ----------------------------------------------------------- preprocess

    def preprocess(self, clauses: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
        """Simplify ``clauses`` (the whole formula so far); returns the
        surviving clauses.  May be called once per Simplifier."""
        if self.preprocessed:
            raise SimplifyError("preprocess() may only run once")
        self.preprocessed = True
        start = time.perf_counter()
        # Clauses may have arrived through the bulk path without variable
        # accounting; re-derive the bound in one sweep.
        highest = max(
            (abs(lit) for clause in clauses for lit in clause), default=0
        )
        self.num_vars = max(self.num_vars, highest)
        self.stats.clauses_before = len(clauses)
        self.stats.vars_before = self.num_vars

        # Working clause store; None marks a deleted clause.
        self._clauses = [list(c) for c in clauses]
        units: list[int] = []
        for index, clause in enumerate(self._clauses):
            if not clause:
                self.unsat = True
            elif len(clause) == 1:
                units.append(clause[0])
        if not self.unsat:
            self._build_occs()
            self._propagate_units(units)
        # Fixed two-pass pipeline: the full (and costly) subsumption sweep
        # runs once; the second pass picks up the equivalences and
        # eliminations the first one cascaded into.  Each stage boundary
        # (and a masked poll inside the two heavy rounds) checks the
        # active resource budget, so a timeout can cut preprocessing
        # short instead of letting it overrun the whole cell budget.
        if not self.unsat:
            limits.check_deadline()
            self._substitute_equivalents()
        if not self.unsat:
            limits.check_deadline()
            self._subsume_round()
        if not self.unsat:
            limits.check_deadline()
            self._eliminate_round()
        if not self.unsat:
            limits.check_deadline()
            self._substitute_equivalents()
        if not self.unsat:
            limits.check_deadline()
            self._eliminate_round()

        survivors: list[tuple[int, ...]] = []
        if not self.unsat:
            for clause in self._clauses:
                if clause is not None:
                    survivors.append(tuple(clause))
        self._clauses = []
        self._occs = []
        self.stats.clauses_after = len(survivors)
        live = {abs(lit) for clause in survivors for lit in clause}
        self.stats.vars_after = len(live)
        self.stats.preprocess_seconds += time.perf_counter() - start
        return survivors

    # Occurrence lists are indexed by literal code 2*var | (lit < 0); they
    # may contain stale clause indices (deleted or rewritten clauses), so
    # every reader re-checks membership.

    def _code(self, lit: int) -> int:
        return (lit << 1) if lit > 0 else ((-lit) << 1) | 1

    def _build_occs(self) -> None:
        occs: list[list[int]] = [[] for _ in range(2 * self.num_vars + 2)]
        for index, clause in enumerate(self._clauses):
            if clause is None:
                continue
            for lit in clause:
                occs[(lit << 1) if lit > 0 else ((-lit) << 1) | 1].append(index)
        self._occs = occs

    def _occ_list(self, lit: int) -> list[int]:
        """Live clause indices containing ``lit`` (compacts in place)."""
        code = self._code(lit)
        raw = self._occs[code]
        live = [
            i for i in raw
            if self._clauses[i] is not None and lit in self._clauses[i]
        ]
        self._occs[code] = live
        return live

    def _propagate_units(self, units: list[int]) -> None:
        """Apply root-level facts to fixpoint (queue-driven)."""
        queue = list(units)
        while queue and not self.unsat:
            lit = queue.pop()
            var = abs(lit)
            value = lit > 0
            seen = self.fixed.get(var)
            if seen is not None:
                if seen != value:
                    self.unsat = True
                continue
            self.fixed[var] = value
            self.stats.units_fixed += 1
            for index in self._occ_list(lit):
                self._clauses[index] = None  # satisfied
            for index in self._occ_list(-lit):
                clause = self._clauses[index]
                if clause is None:
                    continue
                clause.remove(-lit)
                if not clause:
                    self.unsat = True
                    return
                if len(clause) == 1:
                    queue.append(clause[0])
                elif len(clause) == 2:
                    self._binary_epoch += 1

    # --------------------------------------------- equivalent literals (SCC)

    def _substitute_equivalents(self) -> bool:
        """Collapse SCCs of the binary implication graph.

        Returns True when at least one variable was substituted away."""
        if self._binary_epoch == self._equiv_seen_epoch:
            return False  # no new implications since the last pass
        self._equiv_seen_epoch = self._binary_epoch
        # Adjacency over literal codes: binary clause (a, b) gives the
        # implications !a -> b and !b -> a.
        size = 2 * self.num_vars + 2
        adj: list[list[int]] = [[] for _ in range(size)]
        any_binary = False
        for clause in self._clauses:
            if clause is None or len(clause) != 2:
                continue
            a, b = clause
            adj[self._code(-a)].append(self._code(b))
            adj[self._code(-b)].append(self._code(a))
            any_binary = True
        if not any_binary:
            return False

        # Iterative Tarjan SCC over the literal graph.
        index_of = [0] * size
        low = [0] * size
        on_stack = bytearray(size)
        scc_of = [-1] * size
        tarjan_stack: list[int] = []
        counter = 1
        scc_count = 0
        scc_members: list[list[int]] = []
        for root in range(2, size):
            # Every node of a nontrivial SCC has an outgoing edge, so
            # edge-less roots need no visit at all.
            if (
                not adj[root]
                or index_of[root]
                or self.fixed.get(root >> 1) is not None
            ):
                continue
            work = [(root, 0)]
            while work:
                node, child_index = work[-1]
                if child_index == 0:
                    index_of[node] = low[node] = counter
                    counter += 1
                    tarjan_stack.append(node)
                    on_stack[node] = 1
                advanced = False
                neighbors = adj[node]
                while child_index < len(neighbors):
                    succ = neighbors[child_index]
                    child_index += 1
                    if not index_of[succ]:
                        work[-1] = (node, child_index)
                        work.append((succ, 0))
                        advanced = True
                        break
                    if on_stack[succ]:
                        low[node] = min(low[node], index_of[succ])
                if advanced:
                    continue
                work.pop()
                if low[node] == index_of[node]:
                    members = []
                    while True:
                        member = tarjan_stack.pop()
                        on_stack[member] = 0
                        scc_of[member] = scc_count
                        members.append(member)
                        if member == node:
                            break
                    scc_members.append(members)
                    scc_count += 1
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])

        changed = False
        new_units: list[int] = []
        for members in scc_members:
            if len(members) < 2:
                continue
            variables = {code >> 1 for code in members}
            if len(variables) < len(members):
                # Some variable appears with both polarities: x <-> !x.
                self.unsat = True
                return True
            signs = {code >> 1: (code & 1) == 0 for code in members}
            fixed_member = next(
                (v for v in variables if v in self.fixed), None
            )
            if fixed_member is not None:
                # The whole class collapses to a constant.
                base = self.fixed[fixed_member] == signs[fixed_member]
                for var in variables:
                    if var not in self.fixed:
                        new_units.append(var if signs[var] == base else -var)
                continue
            # Representative: prefer a frozen variable (frozen variables
            # are never substituted away), then the lowest number.
            frozen_members = sorted(v for v in variables if v in self.frozen)
            rep = frozen_members[0] if frozen_members else min(variables)
            rep_sign = signs[rep]
            for var in sorted(variables):
                # Each class appears twice (once mirrored); the subst
                # guard makes the second visit a no-op.
                if var == rep or var in self.frozen or var in self.subst:
                    continue
                # var-literal == rep-literal; express var in terms of rep.
                target = rep if signs[var] == rep_sign else -rep
                self.subst[var] = target
                self.stack.append(("subst", var))
                self.stats.equiv_merged += 1
                changed = True
        if not changed:
            # No substitutions: occurrence lists are still valid, so any
            # constant-collapsed classes propagate directly.
            if new_units:
                self._propagate_units(new_units)
            return bool(new_units)

        # Rewrite the clauses that mention a substituted variable (their
        # indices are exactly the occurrence lists of those variables).
        affected: set[int] = set()
        for var in self.subst:
            affected.update(self._occs[var << 1])
            affected.update(self._occs[(var << 1) | 1])
        rewritten_units: list[int] = list(new_units)
        for index in sorted(affected):
            clause = self._clauses[index]
            if clause is None:
                continue
            out: list[int] = []
            satisfied = False
            touched = False
            for lit in clause:
                var = abs(lit)
                if var not in self.subst and self.fixed.get(var) is None:
                    if -lit in out:
                        satisfied = True  # tautology after an earlier merge
                        break
                    if lit not in out:
                        out.append(lit)
                    continue
                touched = True
                mapped = self.map_literal(lit)
                if mapped is True:
                    satisfied = True
                    break
                if mapped is False:
                    continue
                if -mapped in out:
                    satisfied = True  # tautology after merging
                    break
                if mapped not in out:
                    out.append(mapped)
            if not touched and not satisfied:
                continue
            if satisfied:
                self._clauses[index] = None
                continue
            if not out:
                self.unsat = True
                return True
            self._clauses[index] = out
            if len(out) == 1:
                rewritten_units.append(out[0])
        self._build_occs()
        if rewritten_units:
            self._propagate_units(rewritten_units)
        return True

    # --------------------------------------------------- subsumption and SSR

    def _subsume_round(self) -> bool:
        """One pass of subsumption + self-subsuming resolution.

        Stale occurrence entries (clauses deleted or strengthened since
        the lists were built) are harmless: the exact frozenset checks
        reject them, so no compaction pass is needed in this hot loop.
        """
        clauses = self._clauses
        occs = self._occs
        count = len(clauses)
        # One flat 64-bit signature per clause slot: the subsumption scan
        # reads these by index millions of times, so a packed array('Q')
        # (one contiguous buffer, unboxed stores) beats a list of ints.
        sigs = array("Q", bytes(8 * count))
        csets: list[frozenset | None] = [None] * count
        live: list[int] = []
        for index, clause in enumerate(clauses):
            if clause is None:
                continue
            live.append(index)
            signature = 0
            for lit in clause:
                signature |= 1 << (((lit << 1) ^ (lit >> 63)) & 63)
            sigs[index] = signature
            csets[index] = frozenset(clause)
        live.sort(key=lambda i: len(clauses[i]))
        changed = False
        new_units: list[int] = []
        scanned = 0
        for index in live:
            clause = clauses[index]
            if clause is None:
                continue
            scanned += 1
            if scanned & 2047 == 0:
                limits.check_deadline()
            c_sig = sigs[index]
            c_set = csets[index]
            c_len = len(clause)
            # Subsumption: kill every live clause that is a superset of C,
            # scanning the occurrence list of C's least-common literal.
            best_list = None
            best_len = _SUBSUME_MAX_OCCS + 1
            for lit in clause:
                olist = occs[(lit << 1) if lit > 0 else ((-lit) << 1) | 1]
                if len(olist) < best_len:
                    best_list = olist
                    best_len = len(olist)
            if best_list is not None:
                for other in best_list:
                    if other == index or other >= count:
                        continue
                    d_clause = clauses[other]
                    if d_clause is None or len(d_clause) < c_len:
                        continue
                    if c_sig & ~sigs[other]:
                        continue
                    if not (c_set <= csets[other]):
                        continue
                    clauses[other] = None
                    self.stats.clauses_subsumed += 1
                    changed = True
            # Self-subsuming resolution: C = C0 | l, D = D0 | !l with
            # C0 <= D0 lets us drop !l from D.
            if c_len > _SSR_MAX_LEN or c_len < 2:
                continue
            for lit in clause:
                olist = occs[(lit << 1) | 1 if lit > 0 else ((-lit) << 1)]
                if not olist or len(olist) > _SSR_MAX_OCCS:
                    continue
                # Approximate signature of C \ {l}: clearing l's bit may
                # also clear a colliding literal's bit, which only lets
                # more candidates through to the exact check below.
                rest_sig = c_sig & ~(
                    1 << (((lit << 1) ^ (lit >> 63)) & 63)
                )
                rest = None
                for other in olist:
                    if other == index or other >= count:
                        continue
                    d_clause = clauses[other]
                    if d_clause is None or len(d_clause) < c_len:
                        continue
                    if rest_sig & ~sigs[other]:
                        continue
                    d_set = csets[other]
                    if -lit not in d_set:
                        continue  # stale: the literal was already removed
                    if rest is None:
                        rest = c_set - {lit}
                    if not (rest <= d_set):
                        continue
                    d_clause.remove(-lit)
                    self.stats.literals_strengthened += 1
                    changed = True
                    if not d_clause:
                        self.unsat = True
                        return True
                    sigs[other] = _sig(d_clause)
                    csets[other] = frozenset(d_clause)
                    if len(d_clause) == 1:
                        new_units.append(d_clause[0])
                    elif len(d_clause) == 2:
                        self._binary_epoch += 1
        if new_units:
            self._propagate_units(new_units)
        return changed

    # --------------------------------------------- bounded variable elim

    def _eliminate_round(self) -> bool:
        """Pure literals plus bounded variable elimination."""
        changed = False
        order = sorted(
            (
                var for var in range(1, self.num_vars + 1)
                if var not in self.frozen
                and var not in self.fixed
                and var not in self.subst
                and var not in self.eliminated
            ),
            key=lambda var: (
                len(self._occs[var << 1]) + len(self._occs[(var << 1) | 1])
            ),
        )
        new_units: list[int] = []
        scanned = 0
        for var in order:
            if self.unsat:
                return True
            scanned += 1
            if scanned & 2047 == 0:
                limits.check_deadline()
            if self.fixed.get(var) is not None:
                continue
            pos = self._occ_list(var)
            neg = self._occ_list(-var)
            if not pos and not neg:
                continue  # variable no longer occurs; leave it free
            if not pos or not neg:
                # Pure literal: elimination with an empty resolvent set.
                removed = pos or neg
                self.eliminated[var] = [
                    tuple(self._clauses[i]) for i in removed
                ]
                self.stack.append(("elim", var))
                for i in removed:
                    self._clauses[i] = None
                self.stats.vars_eliminated += 1
                self.stats.pure_literals += 1
                changed = True
                continue
            if (
                len(pos) + len(neg) > _BVE_MAX_OCCS
                or len(pos) * len(neg) > _BVE_MAX_PRODUCT
            ):
                continue
            resolvents = self._distribute(pos, neg, var)
            if resolvents is None:
                continue
            # Commit: record removed clauses, delete them, add resolvents.
            self.eliminated[var] = [
                tuple(self._clauses[i]) for i in pos + neg
            ]
            self.stack.append(("elim", var))
            for i in pos + neg:
                self._clauses[i] = None
            for resolvent in resolvents:
                index = len(self._clauses)
                self._clauses.append(resolvent)
                for lit in resolvent:
                    self._occs[self._code(lit)].append(index)
                if len(resolvent) == 1:
                    new_units.append(resolvent[0])
                elif len(resolvent) == 2:
                    self._binary_epoch += 1
            self.stats.vars_eliminated += 1
            changed = True
        if new_units and not self.unsat:
            self._propagate_units(new_units)
        return changed

    def _distribute(
        self, pos: list[int], neg: list[int], var: int
    ) -> list[list[int]] | None:
        """Non-tautological resolvents of pos x neg on ``var``, or None when
        the elimination would grow the formula (the distribution limit)."""
        limit = len(pos) + len(neg)
        out: list[list[int]] = []
        for pi in pos:
            p_clause = self._clauses[pi]
            p_rest = [lit for lit in p_clause if lit != var]
            p_set = set(p_rest)
            for ni in neg:
                n_clause = self._clauses[ni]
                tautology = False
                resolvent = list(p_rest)
                for lit in n_clause:
                    if lit == -var:
                        continue
                    if -lit in p_set:
                        tautology = True
                        break
                    if lit not in p_set:
                        resolvent.append(lit)
                if tautology:
                    continue
                if len(resolvent) > _BVE_MAX_LEN:
                    return None
                out.append(resolvent)
                if len(out) > limit:
                    return None
        return out

    # --------------------------------------------------------- incremental

    def map_clause(self, literals: Sequence[int]) -> list[int] | bool:
        """Map an incoming clause through the simplified state.

        Returns the mapped clause, True when it is already satisfied at
        root level, or False when it is empty (the formula became UNSAT).
        Callers must reinstate eliminated variables first."""
        out: list[int] = []
        seen: set[int] = set()
        for lit in literals:
            mapped = self.map_literal(lit)
            if mapped is True:
                return True
            if mapped is False:
                continue
            if -mapped in seen:
                return True  # tautology
            if mapped not in seen:
                seen.add(mapped)
                out.append(mapped)
        if not out:
            return False
        return out

    def record_unit(self, lit: int) -> None:
        """Remember a root-level fact learned after preprocessing (a unit
        blocking clause), so future mappings constant-fold it."""
        var = abs(lit)
        value = lit > 0
        seen = self.fixed.get(var)
        if seen is not None:
            if seen != value:
                self.unsat = True
            return
        self.fixed[var] = value

    def reinstatement_clauses(self, var: int) -> list[tuple[int, ...]]:
        """Remove ``var`` from the eliminated set and return the clauses
        that must be replayed into the solver.  The caller re-adds them
        through the normal mapping path (they may mention variables
        eliminated later, which then reinstate recursively)."""
        clauses = self.eliminated.pop(var)
        self.stack = [
            entry for entry in self.stack if entry != ("elim", var)
        ]
        self.stats.vars_reinstated += 1
        return clauses

    # ------------------------------------------------------- reconstruction

    def reconstruct(self, model: dict[int, bool]) -> dict[int, bool]:
        """Extend a model of the simplified formula to the original
        variables (in place and returned).

        Replays the reconstruction stack in reverse chronological order:
        an entry's dependencies were removed *later* (or survived), so they
        are already valued when the entry is replayed."""
        for var, value in self.fixed.items():
            model[var] = value
        for kind, var in reversed(self.stack):
            if kind == "subst":
                rep = self.subst[var]
                value = model.get(abs(rep), False)
                model[var] = value if rep > 0 else not value
                continue
            # Eliminated: choose the polarity that satisfies every stored
            # clause (the resolvents guarantee one exists).
            value = None
            for clause in self.eliminated.get(var, ()):
                own = None
                satisfied = False
                for lit in clause:
                    lit_var = abs(lit)
                    if lit_var == var:
                        own = lit > 0
                        continue
                    lit_value = model.get(lit_var, False)
                    if lit_value == (lit > 0):
                        satisfied = True
                        break
                if satisfied or own is None:
                    continue
                if value is None:
                    value = own
                elif value != own:  # pragma: no cover - BVE invariant
                    raise SimplifyError(
                        f"inconsistent reconstruction for variable {var}"
                    )
            model[var] = value if value is not None else False
        for var in range(1, self.num_vars + 1):
            if var not in model:
                model[var] = False
        return model


class SimplifyingBackend:
    """A :class:`repro.sat.backend.SolverBackend` that preprocesses the
    formula before handing it to an inner backend.

    The first :meth:`solve` runs the full SatELite-style pipeline on every
    clause buffered so far; later clause additions and assumptions are
    mapped through the live simplified state (with reinstatement when they
    mention an eliminated variable).  Surviving variables are renumbered
    densely for the inner solver; models are reconstructed back onto the
    original variable space.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.simplifier = Simplifier()
        self._pending: list[tuple[int, ...]] = []
        #: Original var -> inner (dense) var, and its inverse.
        self._to_inner: dict[int, int] = {}
        self._from_inner: list[int] = [0]
        self._unsat = False
        #: Inner assumption literal -> original literal (last solve), and
        #: an override core for UNSAT verdicts decided before the inner
        #: solver ran (constant-false assumption).
        self._assumption_origin: dict[int, int] = {}
        self._forced_core: list[int] | None = None

    # ------------------------------------------------------------ clause I/O

    @property
    def name(self) -> str:
        return f"simplify+{self.inner.name}"

    @property
    def simplify_stats(self) -> SimplifyStats:
        return self.simplifier.stats

    def freeze(self, variables: Iterable[int]) -> None:
        """Protect variables that outside code will mention again."""
        self.simplifier.freeze(variables)

    def ensure_vars(self, num_vars: int) -> None:
        self.simplifier.ensure_vars(num_vars)

    def add_clause(self, literals: Iterable[int]) -> bool:
        clause = tuple(literals)
        for lit in clause:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            self.simplifier.ensure_vars(abs(lit))
        if not self.simplifier.preprocessed:
            self._pending.append(clause)
            if not clause:
                self._unsat = True
            return not self._unsat
        return self._add_mapped(clause)

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        if not self.simplifier.preprocessed:
            # Bulk buffering fast path: clauses from a CNF database are
            # already normalized; variable bounds are re-derived in
            # preprocess(), so no per-literal scan is needed here.
            pending = self._pending
            for clause in clauses:
                clause = tuple(clause)
                pending.append(clause)
                if not clause:
                    self._unsat = True
            return not self._unsat
        ok = True
        for clause in clauses:
            ok = self.add_clause(clause) and ok
        return ok

    def add_cnf(self, cnf, start: int = 0) -> bool:
        self.ensure_vars(cnf.num_vars)
        return self.add_clauses(cnf.clauses[start:])

    # -------------------------------------------------------- inner mapping

    def _inner_var(self, var: int) -> int:
        inner = self._to_inner.get(var)
        if inner is None:
            inner = len(self._from_inner)
            self._to_inner[var] = inner
            self._from_inner.append(var)
            self.inner.ensure_vars(inner)
        return inner

    def _inner_lit(self, lit: int) -> int:
        inner = self._inner_var(abs(lit))
        return inner if lit > 0 else -inner

    def _reinstate(self, var: int) -> None:
        """Replay the elimination of ``var`` (recursively) so new clauses
        mentioning it regain full logical strength."""
        for clause in self.simplifier.reinstatement_clauses(var):
            self._add_mapped(clause)

    def _add_mapped(self, clause: Sequence[int]) -> bool:
        """Map one clause through the live state and push it to the inner
        solver (the post-preprocessing incremental path)."""
        simplifier = self.simplifier
        for lit in clause:
            var = abs(lit)
            while var in simplifier.subst:
                rep = simplifier.subst[var]
                var = abs(rep)
            if simplifier.is_eliminated(var):
                self._reinstate(var)
        mapped = simplifier.map_clause(clause)
        if mapped is True:
            return True
        if mapped is False:
            self._unsat = True
            return False
        if len(mapped) == 1:
            simplifier.record_unit(mapped[0])
            if simplifier.unsat:
                self._unsat = True
                return False
        return self.inner.add_clause([self._inner_lit(l) for l in mapped])

    # --------------------------------------------------------------- solving

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
    ) -> bool | None:
        simplifier = self.simplifier
        if not simplifier.preprocessed:
            # Assumption variables behave like frozen ones: they must
            # survive preprocessing to be assumable (and re-assumable).
            simplifier.freeze(abs(lit) for lit in assumptions)
            survivors = simplifier.preprocess(self._pending)
            self._pending = []
            if simplifier.unsat:
                self._unsat = True
            else:
                load_start = time.perf_counter()
                mapped_clauses = [
                    [self._inner_lit(l) for l in clause]
                    for clause in survivors
                ]
                # Survivors carry no duplicate literals or tautologies, so
                # the inner backend's trusted bulk path applies.
                if not self.inner.add_clauses(mapped_clauses):
                    self._unsat = True
                simplifier.stats.preprocess_seconds += (
                    time.perf_counter() - load_start
                )
        self._assumption_origin = {}
        self._forced_core = None
        if self._unsat:
            return False
        inner_assumptions: list[int] = []
        for lit in assumptions:
            var = abs(lit)
            while var in simplifier.subst:
                var = abs(simplifier.subst[var])
            if simplifier.is_eliminated(var):
                self._reinstate(var)
                if self._unsat:
                    return False
            mapped = simplifier.map_literal(lit)
            if mapped is True:
                continue
            if mapped is False:
                # The assumption contradicts a root-level fact: it alone is
                # a failed-assumption core.
                self._forced_core = [lit]
                return False
            inner_lit = self._inner_lit(mapped)
            self._assumption_origin.setdefault(inner_lit, lit)
            inner_assumptions.append(inner_lit)
        return self.inner.solve(
            assumptions=inner_assumptions, conflict_limit=conflict_limit
        )

    def failed_assumptions(self) -> list[int]:
        """The inner solver's failed-assumption core mapped back onto the
        original assumption literals of the last solve; ``[lit]`` when an
        assumption contradicted a root-level fact before the inner solver
        ran, ``[]`` when the formula alone is unsatisfiable."""
        if self._forced_core is not None:
            return list(self._forced_core)
        origin = self._assumption_origin
        return [
            origin[lit] for lit in self.inner.failed_assumptions()
            if lit in origin
        ]

    # ---------------------------------------------------------------- models

    def model(self) -> dict[int, bool]:
        """A model over the *original* variable space (reconstructed)."""
        inner_model = self.inner.model()
        model = {
            self._from_inner[inner]: value
            for inner, value in inner_model.items()
            if inner < len(self._from_inner)
        }
        return self.simplifier.reconstruct(model)

    def values_of(self, variables: Iterable[int]) -> dict[int, bool]:
        """Values of selected original variables, without reconstructing
        the full model.  Falls back to full reconstruction when one of
        them was eliminated (frozen variables never are)."""
        simplifier = self.simplifier
        wanted = list(variables)
        inner_wanted: dict[int, int] = {}
        out: dict[int, bool] = {}
        for var in wanted:
            mapped = simplifier.map_literal(var)
            if isinstance(mapped, bool):
                out[var] = mapped
                continue
            rep = abs(mapped)
            if simplifier.is_eliminated(rep):
                full = self.model()
                return {v: full.get(v, False) for v in wanted}
            inner = self._to_inner.get(rep)
            if inner is None:
                out[var] = False  # never reached the solver: free variable
                continue
            inner_wanted[var] = inner if mapped > 0 else -inner
        if inner_wanted:
            inner_values = self.inner.values_of(
                abs(lit) for lit in inner_wanted.values()
            )
            for var, lit in inner_wanted.items():
                value = inner_values.get(abs(lit), False)
                out[var] = value if lit > 0 else not value
        return out

    def stats(self):
        """Inner solver counters with the preprocessing counters merged in
        (None when the inner backend cannot report counters)."""
        inner_stats = self.inner.stats()
        if inner_stats is None:
            return inner_stats
        stats = self.simplifier.stats
        return replace(inner_stats, **{
            name: getattr(stats, name) for name in _SOLVER_STATS_SHARED
        })


def simplify_cnf(
    cnf, frozen: Iterable[int] = ()
) -> tuple[list[tuple[int, ...]], Simplifier]:
    """One-shot convenience: preprocess a :class:`repro.sat.cnf.CNF` and
    return ``(surviving_clauses, simplifier)`` (the simplifier carries the
    statistics and the reconstruction state)."""
    simplifier = Simplifier()
    simplifier.ensure_vars(cnf.num_vars)
    simplifier.freeze(frozen)
    survivors = simplifier.preprocess(list(cnf.clauses))
    return survivors, simplifier
