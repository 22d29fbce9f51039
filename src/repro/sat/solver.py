"""A CDCL SAT solver.

This module stands in for the zChaff solver used by the original CheckFence
tool.  It implements the standard conflict-driven clause-learning algorithm:

* two-watched-literal propagation,
* first-UIP conflict analysis with clause learning,
* VSIDS activity-based decisions with phase saving, backed by a lazy
  indexed binary heap (variables are reinserted on backtrack and popped
  lazily, so no ordering work is proportional to the variable count),
* Luby restarts,
* LBD-aware deletion of learned clauses ("glue" clauses with literal
  block distance <= 2 are never deleted),
* incremental solving under assumptions (used by the specification-mining
  loop, which repeatedly re-solves the same formula with extra blocking
  clauses), and
* failed-assumption cores (:meth:`Solver.failed_assumptions`), computed
  MiniSat-style by tracing the implication graph from the failing
  assumption back to the assumption decisions it depends on.

The implementation is pure Python and therefore much slower than a native
solver, but it is complete and deterministic, which is what the checker
needs.

Internally literals are encoded as ``2*var`` (positive) and ``2*var + 1``
(negative); the public interface uses DIMACS-style signed integers.

Clause storage is a flat ``array('i')`` arena instead of lists-of-lists:
a clause handle ``off`` points at its first literal, the literals occupy
``arena[off:arena[off - 1]]`` (the header word before them holds the
exclusive end index), and the two watched literals always sit at ``off``
and ``off+1`` — so the hot keep-watch path reads ``arena[off]`` with no
offset arithmetic at all.
Watch lists hold plain int offsets into the arena, and binary clauses are
specialized out of the arena entirely: ``_bin_watches[l]`` lists the
literals directly implied when ``l`` becomes true, so two-literal clauses
(the bulk of a CheckFence encoding) propagate without touching clause
storage at all.  Reasons are packed into one int per variable: ``0`` for
decisions/assumptions, a positive arena offset for long clauses, and
``-other_literal`` for binary implications.
"""

from __future__ import annotations

from array import array
from dataclasses import asdict, dataclass, field, fields, replace
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from repro.core import limits
from repro.sat.cnf import CNF

_UNASSIGNED = -1
_FALSE = 0
_TRUE = 1

#: Arena compaction thresholds: compact at a restart once deletions have
#: wasted this many ints *and* the waste is a third of the arena.
_COMPACT_MIN_WASTE = 65536


def _to_internal(literal: int) -> int:
    """Convert a DIMACS literal to the internal encoding."""
    var = literal if literal > 0 else -literal
    return 2 * var + (0 if literal > 0 else 1)


def _to_external(ilit: int) -> int:
    """Convert an internal literal back to DIMACS convention."""
    var = ilit >> 1
    return var if (ilit & 1) == 0 else -var


@dataclass
class SolverStats:
    """Counters reported after each :meth:`Solver.solve` call.

    The ``vars_eliminated`` / ``clauses_subsumed`` / ``equiv_merged`` /
    ``preprocess_seconds`` counters are zero for a bare solver; they are
    filled in by :class:`repro.sat.simplify.SimplifyingBackend` when
    in-process CNF preprocessing runs in front of the solver.  The native
    kernel builds this record positionally from its first seven counters,
    so those keep their order.
    """

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    #: A high-water mark: :meth:`merge` keeps the max, and :meth:`since`
    #: reports it as-is.
    max_decision_level: int = field(default=0, metadata={"high_water": True})
    vars_eliminated: int = 0
    clauses_subsumed: int = 0
    equiv_merged: int = 0
    preprocess_seconds: float = 0.0

    def merge(self, other: "SolverStats") -> None:
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            setattr(
                self, f.name,
                max(mine, theirs) if "high_water" in f.metadata
                else mine + theirs,
            )

    def copy(self) -> "SolverStats":
        return replace(self)

    def since(self, earlier: "SolverStats") -> "SolverStats":
        """Counter delta between two cumulative snapshots (for attributing
        solver work to one query when a backend is shared across queries)."""
        return SolverStats(**{
            f.name: (
                getattr(self, f.name) if "high_water" in f.metadata
                else getattr(self, f.name) - getattr(earlier, f.name)
            )
            for f in fields(self)
        })

    def as_dict(self) -> dict:
        return asdict(self)


class SolverError(RuntimeError):
    """Raised on malformed solver input (e.g. literal 0)."""


class VarOrderHeap:
    """Lazy binary max-heap of variables keyed by VSIDS activity.

    Built on :mod:`heapq` (C-implemented push/pop) with lazy entries:

    * a variable stays in the heap while assigned and is skipped when
      popped, so backtracking can blindly reinsert;
    * :meth:`insert` is a no-op for variables already present;
    * bumping an *unassigned* variable pushes a fresh entry and lets the
      stale one die on pop (variables bumped during conflict analysis are
      assigned, so duplicates are rare in practice);
    * activity rescaling invalidates stored keys, so the owner must call
      :meth:`rebuild` then (rescales are rare — every ~1e100 of activity).

    Entries are ``(-activity, -var)`` so :func:`heapq.heappop` yields the
    most active variable, ties broken deterministically toward the highest
    variable number (matching the stable sort the heap replaced).
    """

    __slots__ = ("_activity", "_heap", "_present")

    def __init__(self, activity: list[float]) -> None:
        self._activity = activity
        self._heap: list[tuple[float, int]] = []
        self._present: list[bool] = [False]

    def __len__(self) -> int:
        return len(self._heap)

    def __contains__(self, var: int) -> bool:
        return self._present[var]

    def grow(self, num_vars: int) -> None:
        while len(self._present) <= num_vars:
            self._present.append(False)

    def insert(self, var: int) -> None:
        if self._present[var]:
            return
        self._present[var] = True
        heappush(self._heap, (-self._activity[var], -var))

    def bump(self, var: int) -> None:
        """Refresh ``var``'s key after its activity increased."""
        if self._present[var]:
            heappush(self._heap, (-self._activity[var], -var))

    def pop_max(self) -> int | None:
        heap = self._heap
        present = self._present
        while heap:
            var = -heappop(heap)[1]
            if present[var]:
                present[var] = False
                return var
        return None

    def rebuild(self) -> None:
        """Re-key every live entry (after an activity rescale)."""
        activity = self._activity
        self._heap = [
            (-activity[var], -var)
            for var in range(1, len(self._present))
            if self._present[var]
        ]
        heapify(self._heap)


def _luby(index: int) -> int:
    """The Luby restart sequence (0-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...

    This follows the MiniSat formulation: find the finite subsequence that
    contains ``index`` and the position within it.
    """
    size = 1
    level = 0
    while size < index + 1:
        level += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) // 2
        level -= 1
        index = index % size
    return 1 << level


class Solver:
    """An incremental CDCL SAT solver.

    Typical use::

        solver = Solver()
        solver.add_cnf(cnf)
        if solver.solve():
            model = solver.model()        # dict var -> bool
        solver.add_clause([-3, 5])        # incremental strengthening
        solver.solve(assumptions=[7])
        solver.failed_assumptions()       # core after an UNSAT solve
    """

    def __init__(self, cnf: CNF | None = None) -> None:
        self._num_vars = 0
        # Per-variable state, indexed by variable number (1-based, slot 0 unused).
        self._assign: list[int] = [_UNASSIGNED]
        self._level: list[int] = [0]
        # Packed reason: 0 = decision/assumption/none, >0 = arena offset,
        # <0 = binary implication (the negated value is the other literal).
        self._reason: list[int] = [0]
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [True]
        # Clause arena: [end, lit, lit, ...] records back to back; a clause
        # handle points at its first literal and the header word before it
        # holds the exclusive end index.  Index 0 holds a sentinel so real
        # handles are always positive (the reason encoding relies on that).
        # Watched literals live at off / off+1.
        self._arena: array = array("i", [0])
        #: Offsets of original / learned (size >= 3) clauses in the arena.
        self._clauses: list[int] = []
        self._learned: list[int] = []
        self._cla_activity: dict[int, float] = {}
        self._cla_lbd: dict[int, int] = {}
        #: Arena ints wasted by deleted learned clauses (compaction trigger).
        self._wasted = 0
        # Watch lists indexed by internal literal: arena offsets for long
        # clauses, directly-implied literals for binary clauses.
        self._watches: list[list[int]] = [[], []]
        self._bin_watches: list[list[int]] = [[], []]
        self._num_binary = 0
        self._learned_binary = 0
        self._trail: list[int] = []  # internal literals in assignment order
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._seen = bytearray(1)  # conflict-analysis scratch, per variable
        self._bin_conflict = (0, 0)  # literals of the last binary conflict
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._ok = True
        self._order = VarOrderHeap(self._activity)
        self.stats = SolverStats()
        self.total_stats = SolverStats()
        #: Assignment snapshot of the last SAT result (list indexed by
        #: variable; None before any SAT result).  The dict view is built
        #: lazily by :meth:`model`; :meth:`values_of` reads the snapshot
        #: directly, which the outcome-mining loops rely on.
        self._model_assign: list[int] | None = None
        self._model: dict[int, bool] | None = None
        #: Failed-assumption core of the last UNSAT solve (external literals).
        self._conflict_core: list[int] = []
        if cnf is not None:
            self.add_cnf(cnf)

    # ------------------------------------------------------------------ setup

    def ensure_vars(self, num_vars: int) -> None:
        """Grow internal structures to accommodate ``num_vars`` variables."""
        while self._num_vars < num_vars:
            self._num_vars += 1
            self._assign.append(_UNASSIGNED)
            self._level.append(0)
            self._reason.append(0)
            self._activity.append(0.0)
            self._phase.append(False)
            self._watches.append([])
            self._watches.append([])
            self._bin_watches.append([])
            self._bin_watches.append([])
            self._seen.append(0)
            self._order.grow(self._num_vars)
            self._order.insert(self._num_vars)

    def add_cnf(self, cnf: CNF, start: int = 0) -> bool:
        """Add clauses ``start`` onwards of ``cnf``."""
        self.ensure_vars(cnf.num_vars)
        return self.add_clauses_trusted(cnf.clauses[start:])

    def add_clauses_trusted(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Bulk-add clauses that are already free of duplicate literals and
        tautologies (as :class:`repro.sat.cnf.CNF` guarantees), skipping the
        per-clause normalization of :meth:`add_clause`.

        This is the clause-sync fast path used by
        :class:`repro.sat.backend.InternalBackend` when an encoded test
        streams its (pre-normalized) CNF into the solver.  Returns False if
        the solver became UNSAT.
        """
        self._backtrack(0)
        assign = self._assign
        level = self._level
        for clause in clauses:
            lits = []
            satisfied = False
            for lit in clause:
                if lit == 0:
                    raise SolverError("0 is not a valid literal")
                var = lit if lit > 0 else -lit
                if var > self._num_vars:
                    self.ensure_vars(var)
                    assign = self._assign
                    level = self._level
                ilit = (var << 1) | (lit < 0)
                value = assign[var]
                if value >= 0 and level[var] == 0:
                    if (value ^ (ilit & 1)) == 1:
                        satisfied = True
                        break
                    continue  # false at root level: drop the literal
                lits.append(ilit)
            if satisfied:
                continue
            if not lits:
                self._ok = False
                return False
            if len(lits) == 1:
                if not self._enqueue(lits[0], 0):
                    self._ok = False
                    return False
                if self._propagate() != 0:
                    self._ok = False
                    return False
            else:
                self._attach_clause(lits)
        return True

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the solver became trivially UNSAT."""
        lits = []
        seen = set()
        for lit in literals:
            if lit == 0:
                raise SolverError("0 is not a valid literal")
            self.ensure_vars(abs(lit))
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            lits.append(_to_internal(lit))
        # Adding clauses is only supported at decision level 0 (the
        # incremental interface backtracks fully before each solve()).
        self._backtrack(0)
        # Remove literals already false at level 0; satisfied clause -> skip.
        filtered = []
        for ilit in lits:
            value = self._lit_value(ilit)
            if value == _TRUE and self._level[ilit >> 1] == 0:
                return True
            if value == _FALSE and self._level[ilit >> 1] == 0:
                continue
            filtered.append(ilit)
        lits = filtered
        if not lits:
            self._ok = False
            return False
        if len(lits) == 1:
            if not self._enqueue(lits[0], 0):
                self._ok = False
                return False
            if self._propagate() != 0:
                self._ok = False
                return False
            return True
        self._attach_clause(lits)
        return True

    def _attach_clause(self, lits: list[int]) -> None:
        """Store an original clause (len >= 2) and hook up its watches."""
        if len(lits) == 2:
            a, b = lits
            self._bin_watches[a ^ 1].append(b)
            self._bin_watches[b ^ 1].append(a)
            self._num_binary += 1
            return
        arena = self._arena
        off = len(arena) + 1
        arena.append(off + len(lits))
        arena.extend(lits)
        self._clauses.append(off)
        self._watches[lits[0] ^ 1].append(off)
        self._watches[lits[1] ^ 1].append(off)

    # --------------------------------------------------------------- querying

    def _lit_value(self, ilit: int) -> int:
        assigned = self._assign[ilit >> 1]
        if assigned == _UNASSIGNED:
            return _UNASSIGNED
        if ilit & 1:
            return _TRUE if assigned == _FALSE else _FALSE
        return assigned

    def value(self, var: int) -> bool | None:
        """Return the model value of ``var`` from the last SAT result."""
        assign = self._model_assign
        if assign is None or not 1 <= var < len(assign):
            return None
        return assign[var] == _TRUE

    def model(self) -> dict[int, bool]:
        """Return the satisfying assignment found by the last solve() call."""
        if self._model_assign is None:
            return {}
        if self._model is None:
            assign = self._model_assign
            self._model = {
                var: assign[var] == _TRUE for var in range(1, len(assign))
            }
        return dict(self._model)

    def values_of(self, variables: Iterable[int]) -> dict[int, bool]:
        """Model values of selected variables from the last SAT result,
        without materializing (or copying) the full model dict — the
        narrow accessor the outcome-enumeration hot path uses."""
        assign = self._model_assign
        if assign is None:
            return {}
        bound = len(assign)
        return {
            var: (assign[var] == _TRUE) if 0 < var < bound else False
            for var in variables
        }

    def failed_assumptions(self) -> list[int]:
        """Failed-assumption core of the last :meth:`solve` call.

        After ``solve(assumptions=...)`` returned False, this is a subset of
        those assumptions (external literals, not necessarily minimal) whose
        conjunction with the formula is already unsatisfiable.  An empty
        list means the formula is unsatisfiable on its own.  After a SAT or
        indeterminate result the list is empty.
        """
        return list(self._conflict_core)

    # ------------------------------------------------------------ assignments

    def _enqueue(self, ilit: int, reason: int) -> bool:
        var = ilit >> 1
        value = self._assign[var]
        if value >= 0:
            return (value ^ (ilit & 1)) == 1
        self._assign[var] = (ilit & 1) ^ 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = not (ilit & 1)
        self._trail.append(ilit)
        return True

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        target = self._trail_lim[level]
        order = self._order
        assign = self._assign
        reason = self._reason
        for ilit in reversed(self._trail[target:]):
            var = ilit >> 1
            assign[var] = _UNASSIGNED
            reason[var] = 0
            order.insert(var)
        del self._trail[target:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))

    # ------------------------------------------------------------ propagation

    def _propagate(self) -> int:
        """Unit propagation; returns a conflict token or 0.

        The token is the arena offset of the conflicting clause, or -1 for
        a binary-clause conflict (its two literals are in
        ``self._bin_conflict``).  This is the solver's hottest loop: clause
        literals are read straight out of the int arena, literal values are
        computed inline (``assign[var] ^ sign``: 1 = true, 0 = false,
        negative = unassigned), and binary clauses propagate through plain
        implication lists without touching the arena.
        """
        watches = self._watches
        bin_watches = self._bin_watches
        arena = self._arena
        assign = self._assign
        level = self._level
        reason = self._reason
        phase = self._phase
        trail = self._trail
        dl = len(self._trail_lim)
        qhead = self._qhead
        props = 0
        while qhead < len(trail):
            ilit = trail[qhead]
            qhead += 1
            props += 1
            false_lit = ilit ^ 1
            # Binary implications first: no watch maintenance at all.
            for other in bin_watches[ilit]:
                var = other >> 1
                value = assign[var]
                if value < 0:
                    assign[var] = (other & 1) ^ 1
                    level[var] = dl
                    reason[var] = -false_lit
                    phase[var] = not (other & 1)
                    trail.append(other)
                elif (value ^ (other & 1)) != 1:
                    self._bin_conflict = (other, false_lit)
                    self._qhead = qhead
                    self.stats.propagations += props
                    return -1
            watch_list = watches[ilit]
            if not watch_list:
                continue
            new_watch_list = []
            append_kept = new_watch_list.append
            conflict_off = 0
            for off in watch_list:
                if conflict_off:
                    # A conflict was found earlier in this list; the
                    # remaining entries are untouched watches — keep them.
                    append_kept(off)
                    continue
                # Normalize so the false literal sits in the second watch
                # slot (off+1); the other watch is `first`.
                first = arena[off]
                if first == false_lit:
                    first = arena[off + 1]
                    arena[off] = first
                    arena[off + 1] = false_lit
                value = assign[first >> 1]
                if value >= 0 and (value ^ (first & 1)) == 1:
                    append_kept(off)
                    continue
                # Look for a replacement watch (any non-false literal).
                # Iterating a slice keeps the loop counter a small int and
                # reads literals through the C-level array iterator (an
                # index-based range here would churn boxed large ints).
                scan = off + 2
                found = 0
                for q in arena[scan: arena[off - 1]]:
                    vq = assign[q >> 1]
                    if vq < 0 or (vq ^ (q & 1)) == 1:
                        arena[off + 1] = q
                        arena[scan + found] = false_lit
                        watches[q ^ 1].append(off)
                        found = -1
                        break
                    found += 1
                if found < 0:
                    continue
                append_kept(off)
                if value >= 0:
                    # `first` is false too: conflict.  Finish keeping the
                    # rest of the list, then report.
                    conflict_off = off
                    continue
                var = first >> 1
                assign[var] = (first & 1) ^ 1
                level[var] = dl
                reason[var] = off
                phase[var] = not (first & 1)
                trail.append(first)
            watches[ilit] = new_watch_list
            if conflict_off:
                self._qhead = qhead
                self.stats.propagations += props
                return conflict_off
        self._qhead = qhead
        self.stats.propagations += props
        return 0

    # ------------------------------------------------------- conflict analysis

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._num_vars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            self._order.rebuild()
        self._order.bump(var)

    def _decay_var_activity(self) -> None:
        self._var_inc /= self._var_decay

    def _bump_clause(self, off: int) -> None:
        activity = self._cla_activity
        activity[off] = value = activity[off] + self._cla_inc
        if value > 1e20:
            for o in activity:
                activity[o] *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis.

        ``conflict`` is the token returned by :meth:`_propagate`.  Returns
        the learned clause (internal literals, asserting literal first) and
        the backtrack level.
        """
        arena = self._arena
        level = self._level
        trail = self._trail
        reason_of = self._reason
        seen = self._seen
        learned: list[int] = [0]  # slot for the asserting literal
        counter = 0
        index = len(trail) - 1
        current_level = len(self._trail_lim)

        if conflict > 0:
            lits = arena[conflict: arena[conflict - 1]]
        else:
            lits = self._bin_conflict
        while True:
            for q in lits:
                var = q >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    self._bump_var(var)
                    if level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Select the next literal on the trail to resolve on.
            while not seen[trail[index] >> 1]:
                index -= 1
            ilit = trail[index]
            index -= 1
            var = ilit >> 1
            seen[var] = 0
            counter -= 1
            if counter == 0:
                break
            reason = reason_of[var]
            if reason > 0:
                # Skip the asserted literal (always the first slot).
                lits = arena[reason + 1: arena[reason - 1]]
            else:
                lits = (-reason,)
        learned[0] = ilit ^ 1

        # Clause minimization: drop a literal whose reason clause is entirely
        # covered by the other learned literals (or level-0 facts).  The
        # `seen` flags of learned[1:] are still set from the loop above, so
        # they double as the membership test.
        seen[learned[0] >> 1] = 1
        minimized = [learned[0]]
        for q in learned[1:]:
            reason = reason_of[q >> 1]
            if reason == 0:
                minimized.append(q)
                continue
            if reason < 0:
                var = (-reason) >> 1
                if seen[var] or level[var] == 0:
                    continue
                minimized.append(q)
                continue
            redundant = True
            for k in range(reason + 1, arena[reason - 1]):
                var = arena[k] >> 1
                if not seen[var] and level[var] != 0:
                    redundant = False
                    break
            if not redundant:
                minimized.append(q)
        for q in learned:
            seen[q >> 1] = 0
        learned = minimized

        if len(learned) == 1:
            backtrack_level = 0
        else:
            # Find the literal with the second-highest level and move it to
            # slot 1 (watched position).
            max_index = 1
            max_level = level[learned[1] >> 1]
            for k in range(2, len(learned)):
                lvl = level[learned[k] >> 1]
                if lvl > max_level:
                    max_level = lvl
                    max_index = k
            learned[1], learned[max_index] = learned[max_index], learned[1]
            backtrack_level = max_level
        return learned, backtrack_level

    # ---------------------------------------------------------------- deciding

    def _pick_branch_var(self) -> int | None:
        # Assigned variables are skipped lazily; every unassigned variable is
        # guaranteed to be in the heap (inserted on creation, reinserted on
        # backtrack), so an empty heap means a complete assignment.
        order = self._order
        assign = self._assign
        while True:
            var = order.pop_max()
            if var is None:
                return None
            if assign[var] == _UNASSIGNED:
                return var

    # ------------------------------------------------------- learned DB mgmt

    def _clause_lbd(self, clause: list[int]) -> int:
        """Literal block distance: number of distinct (non-root) decision
        levels among the clause's literals, computed while they are still
        assigned."""
        level = self._level
        levels = {level[q >> 1] for q in clause}
        levels.discard(0)
        return max(1, len(levels))

    def _reduce_learned(self) -> None:
        if len(self._learned) < 2:
            return
        reason = self._reason
        locked = set()
        for var in range(1, self._num_vars + 1):
            r = reason[var]
            if r > 0:
                locked.add(r)
        lbd = self._cla_lbd
        activity = self._cla_activity
        # Deletion candidates: non-glue, not currently a reason (arena
        # learned clauses always have >= 3 literals; binaries never enter).
        candidates = [
            off for off in self._learned
            if lbd[off] > 2 and off not in locked
        ]
        if not candidates:
            return
        # Delete the worse half: high LBD first, ties broken by low activity.
        candidates.sort(key=lambda off: (-lbd[off], activity[off]))
        to_delete = set(candidates[: len(candidates) // 2])
        if not to_delete:
            return
        arena = self._arena
        kept: list[int] = []
        for off in self._learned:
            if off in to_delete:
                self.stats.deleted_clauses += 1
                self._wasted += arena[off - 1] - off + 1
                del lbd[off]
                del activity[off]
            else:
                kept.append(off)
        self._learned = kept
        watches = self._watches
        for ilit in range(2, 2 * self._num_vars + 2):
            watch_list = watches[ilit]
            if watch_list:
                watches[ilit] = [
                    off for off in watch_list if off not in to_delete
                ]

    def _compact_arena(self) -> None:
        """Rewrite the arena without the holes left by deleted learned
        clauses, remapping clause offsets everywhere they are stored
        (clause lists, learned metadata, reasons, watch lists).  Only
        called at decision level 0."""
        arena = self._arena
        new_arena = array("i", [0])
        remap: dict[int, int] = {}
        for off in self._clauses:
            end = arena[off - 1]
            new_off = len(new_arena) + 1
            remap[off] = new_off
            new_arena.append(new_off + (end - off))
            new_arena.extend(arena[off:end])
        for off in self._learned:
            end = arena[off - 1]
            new_off = len(new_arena) + 1
            remap[off] = new_off
            new_arena.append(new_off + (end - off))
            new_arena.extend(arena[off:end])
        self._arena = new_arena
        self._clauses = [remap[off] for off in self._clauses]
        self._learned = [remap[off] for off in self._learned]
        self._cla_activity = {
            remap[off]: value for off, value in self._cla_activity.items()
        }
        self._cla_lbd = {
            remap[off]: value for off, value in self._cla_lbd.items()
        }
        reason = self._reason
        for var in range(1, self._num_vars + 1):
            r = reason[var]
            if r > 0:
                reason[var] = remap[r]
        watches: list[list[int]] = [[] for _ in range(2 * self._num_vars + 2)]
        for off in self._clauses:
            watches[new_arena[off] ^ 1].append(off)
            watches[new_arena[off + 1] ^ 1].append(off)
        for off in self._learned:
            watches[new_arena[off] ^ 1].append(off)
            watches[new_arena[off + 1] ^ 1].append(off)
        self._watches = watches
        self._wasted = 0

    # -------------------------------------------------------- UNSAT core

    def _analyze_final(self, ilit: int) -> list[int]:
        """Core of assumptions implying the negation of assumption ``ilit``
        (which was found false while applying assumptions), as external
        literals including ``ilit`` itself.  MiniSat's ``analyzeFinal``:
        walk the trail backwards from the implication graph rooted at
        ``ilit``'s variable; decisions reached at level > 0 are assumption
        literals (assumption levels are the only open levels here)."""
        seen = self._seen
        trail = self._trail
        reason_of = self._reason
        level = self._level
        arena = self._arena
        core = [_to_external(ilit)]
        seen[ilit >> 1] = 1
        for i in range(len(trail) - 1, -1, -1):
            q = trail[i]
            var = q >> 1
            if not seen[var]:
                continue
            seen[var] = 0
            if level[var] == 0:
                continue
            reason = reason_of[var]
            if reason == 0:
                core.append(_to_external(q))
            elif reason < 0:
                other = (-reason) >> 1
                if level[other] > 0:
                    seen[other] = 1
            else:
                for k in range(reason + 1, arena[reason - 1]):
                    u = arena[k] >> 1
                    if level[u] > 0:
                        seen[u] = 1
        return core

    # ------------------------------------------------------------------ solve

    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: int | None = None,
    ) -> bool | None:
        """Solve the current formula.

        Returns True (SAT), False (UNSAT), or None if ``conflict_limit`` was
        exhausted before a result was reached.
        """
        self.stats = SolverStats()
        self._model_assign = None
        self._model = None
        self._conflict_core = []
        self._backtrack(0)
        if not self._ok:
            self.total_stats.merge(self.stats)
            return False
        if self._propagate() != 0:
            self._ok = False
            self.total_stats.merge(self.stats)
            return False

        iassumptions = []
        for lit in assumptions:
            if lit == 0:
                raise SolverError("0 is not a valid assumption literal")
            self.ensure_vars(abs(lit))
            iassumptions.append(_to_internal(lit))

        restart_count = 0
        conflicts_until_restart = 32 * _luby(restart_count)
        conflicts_since_restart = 0
        max_learned = max(1000, self.num_clauses // 2)
        total_conflicts = 0
        # Resolved once per solve: the active resource budget, polled on
        # conflict-limit slices (every 64 conflicts) and on long
        # conflict-free decision runs, so a blown-up instance surfaces as
        # TIMEOUT/OOM instead of an unbounded solve.
        deadline = limits.active_deadline()
        decisions_since_poll = 0

        while True:
            conflict = self._propagate()
            if conflict != 0:
                self.stats.conflicts += 1
                total_conflicts += 1
                conflicts_since_restart += 1
                if len(self._trail_lim) == 0:
                    self.total_stats.merge(self.stats)
                    if not iassumptions:
                        self._ok = False
                    return False
                learned, backtrack_level = self._analyze(conflict)
                # LBD must be computed while the literals are still assigned.
                lbd = self._clause_lbd(learned)
                self._backtrack(backtrack_level)
                if len(learned) == 1:
                    if not self._enqueue(learned[0], 0):
                        self.total_stats.merge(self.stats)
                        return False
                elif len(learned) == 2:
                    first, second = learned
                    self._bin_watches[first ^ 1].append(second)
                    self._bin_watches[second ^ 1].append(first)
                    self._learned_binary += 1
                    self.stats.learned_clauses += 1
                    if not self._enqueue(first, -second):
                        self.total_stats.merge(self.stats)
                        return False
                else:
                    arena = self._arena
                    off = len(arena) + 1
                    arena.append(off + len(learned))
                    arena.extend(learned)
                    self._learned.append(off)
                    self._cla_activity[off] = 0.0
                    self._cla_lbd[off] = lbd
                    self._bump_clause(off)
                    self._watches[learned[0] ^ 1].append(off)
                    self._watches[learned[1] ^ 1].append(off)
                    self.stats.learned_clauses += 1
                    if not self._enqueue(learned[0], off):
                        self.total_stats.merge(self.stats)
                        return False
                self._decay_var_activity()
                self._cla_inc /= self._cla_decay
                if conflict_limit is not None and total_conflicts >= conflict_limit:
                    self._backtrack(0)
                    self.total_stats.merge(self.stats)
                    return None
                if deadline is not None and total_conflicts & 63 == 0:
                    self._poll_deadline(deadline)
                if conflicts_since_restart >= conflicts_until_restart:
                    self.stats.restarts += 1
                    restart_count += 1
                    conflicts_until_restart = 32 * _luby(restart_count)
                    conflicts_since_restart = 0
                    self._backtrack(0)
                    if (
                        self._wasted > _COMPACT_MIN_WASTE
                        and self._wasted * 3 > len(self._arena)
                    ):
                        self._compact_arena()
                if self.num_learned > max_learned:
                    self._reduce_learned()
                    max_learned = int(max_learned * 1.3)
                continue

            # No conflict: apply pending assumptions, then decide.
            if len(self._trail_lim) < len(iassumptions):
                ilit = iassumptions[len(self._trail_lim)]
                value = self._lit_value(ilit)
                if value == _TRUE:
                    # Already satisfied; open an empty decision level so the
                    # indexing of assumption levels stays aligned.
                    self._trail_lim.append(len(self._trail))
                    continue
                if value == _FALSE:
                    self._conflict_core = self._analyze_final(ilit)
                    self._backtrack(0)
                    self.total_stats.merge(self.stats)
                    return False
                self._trail_lim.append(len(self._trail))
                self._enqueue(ilit, 0)
                continue

            var = self._pick_branch_var()
            if var is None:
                # All variables assigned: SAT.  Snapshot the assignment
                # (C-level list copy); model() builds the dict view lazily.
                self._model_assign = self._assign[:]
                self._backtrack(0)
                self.total_stats.merge(self.stats)
                return True
            self.stats.decisions += 1
            if deadline is not None:
                decisions_since_poll += 1
                if decisions_since_poll >= 4096:
                    decisions_since_poll = 0
                    self._poll_deadline(deadline)
            self._trail_lim.append(len(self._trail))
            if len(self._trail_lim) > self.stats.max_decision_level:
                self.stats.max_decision_level = len(self._trail_lim)
            phase = self._phase[var]
            ilit = 2 * var + (0 if phase else 1)
            self._enqueue(ilit, 0)

    def _poll_deadline(self, deadline) -> None:
        """Raise out of the search loop on budget breach, leaving the
        solver at decision level 0 with its counters merged so it stays
        reusable (e.g. after a conservative retry without the budget)."""
        if deadline.expired() or deadline.memory_exceeded():
            self._backtrack(0)
            self.total_stats.merge(self.stats)
            self.stats = SolverStats()
            deadline.check()

    # ------------------------------------------------------------- utilities

    @property
    def num_vars(self) -> int:
        return self._num_vars

    @property
    def num_clauses(self) -> int:
        return len(self._clauses) + self._num_binary

    @property
    def num_learned(self) -> int:
        return len(self._learned) + self._learned_binary


def solve_cnf(cnf: CNF, assumptions: Sequence[int] = ()) -> dict[int, bool] | None:
    """One-shot convenience wrapper: returns a model or None if UNSAT."""
    solver = Solver(cnf)
    if solver.solve(assumptions=assumptions):
        return solver.model()
    return None
