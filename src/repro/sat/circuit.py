"""Boolean gates written straight into CNF, with structural hashing.

The encoder (``repro.encoding``) builds the formula ``Phi`` through a
:class:`Circuit`: named input variables and three gate kinds, AND, XOR and
if-then-else (ITE, the multiplexer), from which OR, IFF and implication
derive by complementing.  Every handle the builder returns *is* a DIMACS
literal of the builder's own :class:`repro.sat.cnf.CNF`: an input is a
fresh variable, a gate's output variable is minted together with its
Tseitin clauses (``n + 1`` for an n-ary AND, 4 for an XOR or an ITE), a
complement is unary minus, and :data:`Circuit.TRUE` / :data:`Circuit.FALSE`
are ``1`` / ``-1``, the constant-TRUE variable the builder mints first and
forces with a unit clause.  So the formula has one number space: a handle
goes into a clause, an assumption or a model lookup as it is.

The paper assembles ``Phi`` symbolically and only then flattens it for
zChaff.  Here each gate is flattened as it is built, and sharing happens
before any clause is written: gates fold constants, duplicates and
complementary operands, normalise operand signs so one gate serves every
polarity, and a structural hash per gate kind returns the existing gate of
an equal term instead of minting a second one.
"""

from __future__ import annotations

from array import array
from itertools import chain, islice
from typing import Iterable

from repro.sat.cnf import CNF

# Nested positive AND children are not flattened into the parent
# conjunction: inlining ``and_(and_(a, b), c)`` to ``and_(a, b, c)`` looks
# like a canonicalization win, but the wide n-ary gates it produces have
# wide Tseitin clauses.  With the since-deleted Python preprocessor in
# front of the kernel, their resolvents blew past its bounded variable
# elimination limits: on the largest catalog tests flattening cut the
# clause reduction from ~65% to ~15%.  That measurement has not been
# repeated on the bare kernel; narrow gates, whose intermediate gates the
# structural hash shares, are what was measured to win.


class Circuit:
    """An AND/XOR/ITE gate builder over its own CNF, with named inputs.

    Handles are CNF literals; negate one with unary minus.
    """

    TRUE = 1
    FALSE = -1

    def __init__(self) -> None:
        #: The clauses of every gate built so far, and the inputs.
        self.cnf = CNF()
        self.cnf.add_unit(self.cnf.new_var("const_true"))
        #: Structural hashes, one per gate kind, each from the normalised
        #: operands to the gate's output variable: the sorted children of
        #: an AND, the sorted operand variables of an XOR, and the
        #: ``(cond, then, else)`` of an ITE with ``cond`` and ``then``
        #: positive.
        self._and_cache: dict[tuple[int, ...], int] = {}
        self._xor_cache: dict[tuple[int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}

    def var(self, name: str | None = None) -> int:
        """Create a fresh input variable and return its literal."""
        return self.cnf.new_var(name)

    # ---------------------------------------------------------- construction

    def and_(self, *args: int) -> int:
        if len(args) == 2:
            # Fast path for the binary case (the bulk of all calls).
            a, b = args
            if a == -1 or b == -1:
                return self.FALSE
            if a == 1:
                return b
            if b == 1:
                return a
            if a == b:
                return a
            if a == -b:
                return self.FALSE
            key = (a, b) if a < b else (b, a)
            cached = self._and_cache.get(key)
            if cached is not None:
                return cached
            return self._gate(key)
        return self.and_many(args)

    def and_many(self, args: Iterable[int]) -> int:
        """N-ary conjunction with local simplifications.

        Constants and duplicates fold away and complementary literals
        collapse the whole conjunction to FALSE.  Children are kept as
        given (no flattening of nested ANDs — see the module comment);
        the sorted cache key still makes the gate order-insensitive.
        Via De Morgan :meth:`or_many` is the complement of this method.
        """
        children: list[int] = []
        seen: set[int] = set()
        for a in args:
            if a == self.FALSE:
                return self.FALSE
            if a == self.TRUE:
                continue
            if -a in seen:
                return self.FALSE
            if a in seen:
                continue
            seen.add(a)
            children.append(a)
        if not children:
            return self.TRUE
        if len(children) == 1:
            return children[0]
        key = tuple(sorted(children))
        cached = self._and_cache.get(key)
        if cached is not None:
            return cached
        return self._gate(key)

    def _gate(self, children: tuple[int, ...]) -> int:
        """Mint the output of ``AND(children)`` and write its Tseitin
        clauses, ``out -> child`` per child and ``AND(children) -> out``.
        The children are distinct, non-constant and pairwise
        non-complementary, and the output is fresh, so the clauses go
        through the trusted path."""
        cnf = self.cnf
        out = cnf.new_var()
        if len(children) == 2:  # the bulk of all gates
            a, b = children
            cnf.add_clauses_trusted_flat(
                (-out, a, -out, b, out, -a, -b), (2, 2, 3)
            )
        else:
            clauses: list[int] = []
            for child in children:
                clauses += (-out, child)
            clauses.append(out)
            clauses.extend(-child for child in children)
            cnf.add_clauses_trusted_flat(
                clauses, [2] * len(children) + [len(children) + 1]
            )
        self._and_cache[children] = out
        return out

    def or_(self, *args: int) -> int:
        if len(args) == 2:
            return -self.and_(-args[0], -args[1])
        return self.or_many(args)

    def or_many(self, args: Iterable[int]) -> int:
        return -self.and_many(-a for a in args)

    def implies(self, a: int, b: int) -> int:
        return self.or_(-a, b)

    def xor(self, a: int, b: int) -> int:
        """Exclusive or: one variable and four clauses per gate.

        Constants and ``a == ±b`` fold.  Otherwise the gate is keyed on
        the sorted operand variables and the parity of the operand signs
        moves to the output, so ``xor(a, b)``, ``xor(b, a)`` and
        ``-xor(-a, b)`` are one gate.
        """
        if a == 1:
            return -b
        if a == -1:
            return b
        if b == 1:
            return -a
        if b == -1:
            return a
        if a == b:
            return self.FALSE
        if a == -b:
            return self.TRUE
        negate = (a < 0) != (b < 0)
        if a < 0:
            a = -a
        if b < 0:
            b = -b
        key = (a, b) if a < b else (b, a)
        out = self._xor_cache.get(key)
        if out is None:
            # out <-> x XOR y over the distinct variables x < y and the
            # fresh out: the trusted path's contract holds.
            x, y = key
            out = self.cnf.new_var()
            self.cnf.add_clauses_trusted_flat(
                (-out, x, y, -out, -x, -y, out, -x, y, out, x, -y),
                (3, 3, 3, 3),
            )
            self._xor_cache[key] = out
        return -out if negate else out

    def iff(self, a: int, b: int) -> int:
        return -self.xor(a, b)

    def ite(self, cond: int, then_branch: int, else_branch: int) -> int:
        """If-then-else (multiplexer) on single bits: one variable and
        four clauses per gate.

        A constant ``cond``, ``then == ±else``, and a branch that is a
        constant or on ``cond``'s variable fold to a branch, an AND, an OR
        or an XOR.  Otherwise the branches swap to make ``cond`` positive
        and the output is negated to make ``then`` positive, so one gate
        serves ``ite(c, t, e)``, ``ite(-c, e, t)`` and
        ``-ite(c, -t, -e)``.
        """
        c, t, e = cond, then_branch, else_branch
        if c == 1:
            return t
        if c == -1:
            return e
        if t == e:
            return t
        if t == -e:
            return self.xor(c, e)
        if t == 1 or t == c:
            return self.or_(c, e)
        if t == -1 or t == -c:
            return self.and_(-c, e)
        if e == -1 or e == c:
            return self.and_(c, t)
        if e == 1 or e == -c:
            return self.or_(-c, t)
        if c < 0:
            c, t, e = -c, e, t
        negate = t < 0
        if negate:
            t, e = -t, -e
        key = (c, t, e)
        out = self._ite_cache.get(key)
        if out is None:
            # out <-> (c ? t : e) over the three distinct variables of c,
            # t and e and the fresh out: the trusted path's contract holds.
            out = self.cnf.new_var()
            self.cnf.add_clauses_trusted_flat(
                (-out, -c, t, -out, c, e, out, -c, -t, out, c, -e),
                (3, 3, 3, 3),
            )
            self._ite_cache[key] = out
        return -out if negate else out

    # ------------------------------------------------------------ batches

    def build_terms(
        self, accesses: array, initials: array, requests: array
    ) -> tuple[array, array]:
        """Build a batch of equality terms in one native call
        (:func:`repro.sat.native.build_terms`), gate for gate as
        :meth:`and_many`, :meth:`xor` and
        :meth:`repro.sat.bitvec.BitVecBuilder.eq` would build them here.

        ``accesses``, ``initials`` and ``requests`` are the sections of
        the ``terms.c`` descriptor this builder does not own; it adds its
        AND and XOR hashes, so the batch hash-conses with every gate built
        so far.  The new clauses, variables and gates are installed here,
        so later gates hash-cons with the batch's.  Returns one literal
        per request and the first variable of each fresh initial value.
        """
        # Imported here: the binding loads ctypes and the IPASIR module,
        # which importing the gate builder does not need.
        from repro.sat import native

        and_keys = self._and_cache.keys()
        lengths = array("i", map(len, and_keys))
        operands = array("i", chain.from_iterable(and_keys))
        descriptor = array("i", (
            len(lengths), len(operands), len(self._xor_cache),
            len(accesses), len(initials), len(requests),
        ))
        descriptor += lengths
        descriptor += operands
        descriptor.extend(self._and_cache.values())
        descriptor.extend(chain.from_iterable(self._xor_cache))
        descriptor.extend(self._xor_cache.values())
        descriptor += accesses
        descriptor += initials
        descriptor += requests
        cnf = self.cnf
        built = native.build_terms(
            descriptor, cnf.num_vars + 1, cnf.literal_count
        )
        cnf.add_clauses_trusted_ends(built.literals, built.ends)
        cnf.num_vars = built.next_var - 1
        operands = iter(built.and_operands)
        self._and_cache.update(zip(
            [tuple(islice(operands, n)) for n in built.and_lengths],
            built.and_outputs,
        ))
        operands = iter(built.xor_operands)
        self._xor_cache.update(
            zip(zip(operands, operands), built.xor_outputs)
        )
        return built.results, built.minted

    # ------------------------------------------------------------- snapshot

    def copy(self) -> "Circuit":
        """An independent continuation of this builder.

        The CNF snapshot is an array-level memcpy and each structural hash
        a dict copy, so a gate rebuilt on the copy returns the original's
        literal, and gates built on the copy never reach the original.
        This is what lets a per-model encoding layer grow on top of a
        shared model-independent skeleton without disturbing it.
        """
        out = Circuit.__new__(Circuit)
        out.cnf = self.cnf.copy()
        out._and_cache = dict(self._and_cache)
        out._xor_cache = dict(self._xor_cache)
        out._ite_cache = dict(self._ite_cache)
        return out
