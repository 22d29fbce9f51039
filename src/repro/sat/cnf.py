"""Propositional CNF formulas.

Literals follow the DIMACS convention: a variable is a positive integer
``v >= 1`` and a literal is ``+v`` (the variable itself) or ``-v`` (its
negation).  :class:`CNF` is the clause database that the rest of the system
builds and that :class:`repro.sat.solver.Solver` consumes.

Clauses are stored in two flat ``array`` buffers — one holding every
literal back to back and one holding the cumulative end offset of each
clause — rather than a list of tuples.  That keeps the per-clause overhead
at a few machine words and, more importantly, makes :meth:`CNF.copy` an
``array``-level memcpy, which is what lets the encoder snapshot a shared
formula skeleton once per memory model at negligible cost.  The
:attr:`CNF.clauses` attribute is preserved as a sequence view that yields
tuples, so existing consumers (``for clause in cnf.clauses``,
``cnf.clauses[n:]``, ``len(cnf.clauses)``) keep working unchanged.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Sequence


def neg(literal: int) -> int:
    """Return the negation of a literal."""
    return -literal


def var_of(literal: int) -> int:
    """Return the variable of a literal (a positive integer)."""
    return literal if literal > 0 else -literal


def sign_of(literal: int) -> bool:
    """Return True if the literal is positive."""
    return literal > 0


class ClauseView(Sequence):
    """Read-only sequence of clauses over the flat literal buffers.

    Indexing and iteration materialize tuples on demand, so the view is
    interchangeable with the ``list[tuple[int, ...]]`` the clause store
    used to be.  The view is *live*: clauses added to the owning
    :class:`CNF` after the view was obtained are visible through it.
    """

    __slots__ = ("_lits", "_ends")

    def __init__(self, lits: array, ends: array) -> None:
        self._lits = lits
        self._ends = ends

    def __len__(self) -> int:
        return len(self._ends)

    def _clause(self, index: int) -> tuple[int, ...]:
        start = self._ends[index - 1] if index else 0
        return tuple(self._lits[start:self._ends[index]])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [
                self._clause(i)
                for i in range(*index.indices(len(self._ends)))
            ]
        n = len(self._ends)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("clause index out of range")
        return self._clause(index)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        lits = self._lits
        start = 0
        for end in self._ends:
            yield tuple(lits[start:end])
            start = end

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClauseView({len(self)} clauses)"


class CNF:
    """A growable CNF formula (clause database plus variable allocator)."""

    __slots__ = ("num_vars", "_lits", "_ends", "names")

    def __init__(self, num_vars: int = 0) -> None:
        self.num_vars = num_vars
        #: Flat literal buffer: every clause's literals back to back.
        self._lits: array = array("i")
        #: Cumulative end offset of clause ``i`` within ``_lits``.
        self._ends: array = array("q")
        #: Optional human-readable names for variables (for trace decoding).
        self.names: dict[int, str] = {}

    @property
    def clauses(self) -> ClauseView:
        """The clauses as a live, tuple-yielding sequence view."""
        return ClauseView(self._lits, self._ends)

    def new_var(self, name: str | None = None) -> int:
        """Allocate a fresh variable and return it (a positive integer)."""
        self.num_vars += 1
        if name is not None:
            self.names[self.num_vars] = name
        return self.num_vars

    def new_vars(self, count: int, prefix: str | None = None) -> list[int]:
        """Allocate ``count`` fresh variables."""
        out = []
        for i in range(count):
            name = f"{prefix}[{i}]" if prefix is not None else None
            out.append(self.new_var(name))
        return out

    def add_clause(self, literals: Iterable[int]) -> None:
        """Add a clause (a disjunction of literals).

        Tautological clauses (containing both ``l`` and ``-l``) are dropped
        and duplicate literals are removed, which keeps the solver input
        clean without changing satisfiability.
        """
        seen: set[int] = set()
        out: list[int] = []
        num_vars = self.num_vars
        for lit in literals:
            if lit == 0:
                raise ValueError("0 is not a valid literal")
            var = lit if lit > 0 else -lit
            if var > num_vars:
                # Allow callers to use variables they allocated elsewhere,
                # but keep num_vars consistent.
                num_vars = var
            if -lit in seen:
                self.num_vars = num_vars
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        self.num_vars = num_vars
        self._lits.extend(out)
        self._ends.append(len(self._lits))

    def add_clause_trusted(self, literals) -> None:
        """Append a clause known to be normalized already.

        The caller guarantees: no zero literal, no duplicate literals, not
        a tautology, and every variable already allocated.  Hot emitters
        (Tseitin lowering, the transitivity triangles) satisfy all four by
        construction, and skipping the per-literal checks roughly halves
        their clause-emission cost.
        """
        self._lits.extend(literals)
        self._ends.append(len(self._lits))

    def add_clauses_trusted_flat(
        self, literals: Sequence[int], lengths: Sequence[int]
    ) -> None:
        """Bulk form of :meth:`add_clause_trusted`: ``literals`` holds the
        clauses back to back, ``lengths`` the literal count of each.  One
        array-level extend installs every literal; only the clause-boundary
        bookkeeping runs per clause."""
        self._lits.extend(literals)
        end = len(self._lits) - len(literals)
        ends = self._ends
        for n in lengths:
            end += n
            ends.append(end)

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    def extend(self, other: "CNF") -> None:
        """Append all clauses of ``other`` (variables must already be shared)."""
        self.num_vars = max(self.num_vars, other.num_vars)
        offset = len(self._lits)
        self._lits.extend(other._lits)
        self._ends.extend(end + offset for end in other._ends)
        self.names.update(other.names)

    # -- convenience constraint builders ------------------------------------

    def add_unit(self, literal: int) -> None:
        self.add_clause([literal])

    # -- statistics ----------------------------------------------------------

    @property
    def num_clauses(self) -> int:
        return len(self._ends)

    def num_literals(self) -> int:
        return len(self._lits)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.clauses)

    def __len__(self) -> int:
        return len(self._ends)

    def copy(self) -> "CNF":
        """A cheap snapshot: the literal buffers copy at memcpy speed."""
        out = CNF(num_vars=self.num_vars)
        out._lits = self._lits[:]
        out._ends = self._ends[:]
        out.names = dict(self.names)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CNF(vars={self.num_vars}, clauses={self.num_clauses})"
