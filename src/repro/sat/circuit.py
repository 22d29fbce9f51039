"""Boolean circuits with structural hashing and Tseitin CNF conversion.

The encoder (``repro.encoding``) builds the formula ``Phi`` as a circuit of
AND/NOT gates (an AIG) plus named input variables, and then lowers it to CNF
for the CDCL solver.  Nodes are referenced by signed integer *handles*: a
positive handle names a node, a negative handle names its complement, and
the special handles :data:`Circuit.TRUE` / :data:`Circuit.FALSE` are the
constants.

Keeping the circuit layer separate from the CNF layer mirrors the structure
of the original tool, where the formula is assembled symbolically and only
then flattened for the SAT solver, and it lets us share common subterms
(structural hashing) before any clauses are emitted.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.sat.cnf import CNF

_CONST_INDEX = 1  # node index reserved for the constant TRUE

# Nested positive AND children are deliberately *not* flattened into the
# parent conjunction: inlining ``and_(and_(a, b), c)`` to ``and_(a, b, c)``
# looks like a canonicalization win, but the wide n-ary nodes it produces
# lower to wide Tseitin clauses whose resolvents blow past the
# preprocessor's bounded-variable-elimination limits — on the largest
# catalog tests flattening was measured to cut the post-preprocessing
# clause reduction from ~65% to ~15%.  Keeping gates narrow (and letting
# the structural hash share the intermediate nodes) is what the SAT side
# actually wants.


class Circuit:
    """An and-inverter graph with named inputs.

    Handles returned by the construction methods are plain ints; negate a
    handle with unary minus (or :meth:`not_`).
    """

    TRUE = _CONST_INDEX
    FALSE = -_CONST_INDEX

    def __init__(self) -> None:
        # Node storage. Index 0 is unused, index 1 is the TRUE constant.
        # Each node is either ("const",), ("var", name) or ("and", children).
        self._nodes: list[tuple] = [None, ("const",)]
        self._and_cache: dict[tuple[int, ...], int] = {}
        self._input_names: dict[int, str] = {}

    # --------------------------------------------------------------- inputs

    def var(self, name: str | None = None) -> int:
        """Create a fresh input variable and return its handle."""
        index = len(self._nodes)
        self._nodes.append(("var", name))
        if name is not None:
            self._input_names[index] = name
        return index

    def vars(self, count: int, prefix: str = "v") -> list[int]:
        return [self.var(f"{prefix}[{i}]") for i in range(count)]

    def name_of(self, handle: int) -> str | None:
        return self._input_names.get(abs(handle))

    # ---------------------------------------------------------- construction

    def not_(self, a: int) -> int:
        return -a

    def and_(self, *args: int) -> int:
        if len(args) == 2:
            # Fast path for the binary case (the bulk of all calls): the
            # generic worklist only matters when a child must be flattened.
            a, b = args
            if a == -_CONST_INDEX or b == -_CONST_INDEX:
                return self.FALSE
            if a == _CONST_INDEX:
                return b
            if b == _CONST_INDEX:
                return a
            if a == b:
                return a
            if a == -b:
                return self.FALSE
            nodes = self._nodes
            key = (a, b) if a < b else (b, a)
            cached = self._and_cache.get(key)
            if cached is not None:
                return cached
            index = len(nodes)
            nodes.append(("and", key))
            self._and_cache[key] = index
            return index
        return self.and_many(args)

    def and_many(self, args: Iterable[int]) -> int:
        """N-ary conjunction with local simplifications.

        Constants and duplicates fold away and complementary literals
        collapse the whole conjunction to FALSE.  Children are kept as
        given (no flattening of nested ANDs — see the module comment);
        the sorted cache key still makes the node order-insensitive.
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
        index = len(self._nodes)
        self._nodes.append(("and", key))
        self._and_cache[key] = index
        return index

    def or_(self, *args: int) -> int:
        if len(args) == 2:
            return -self.and_(-args[0], -args[1])
        return self.or_many(args)

    def or_many(self, args: Iterable[int]) -> int:
        return -self.and_many(-a for a in args)

    def implies(self, a: int, b: int) -> int:
        return self.or_(-a, b)

    def xor(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, -b), self.and_(-a, b))

    def iff(self, a: int, b: int) -> int:
        return -self.xor(a, b)

    def ite(self, cond: int, then_branch: int, else_branch: int) -> int:
        """If-then-else (multiplexer) on single bits."""
        if cond == self.TRUE:
            return then_branch
        if cond == self.FALSE:
            return else_branch
        if then_branch == else_branch:
            return then_branch
        return self.or_(
            self.and_(cond, then_branch), self.and_(-cond, else_branch)
        )

    # ------------------------------------------------------------- snapshot

    def copy(self) -> "Circuit":
        """A shallow structural snapshot.

        Node tuples are immutable, so copying the node list and caches is
        enough; handles minted in the original remain valid (same indexes)
        in the copy.  This is what lets a per-model encoding layer grow on
        top of a shared model-independent skeleton without disturbing it.
        """
        out = Circuit.__new__(Circuit)
        out._nodes = list(self._nodes)
        out._and_cache = dict(self._and_cache)
        out._input_names = dict(self._input_names)
        return out

    # ------------------------------------------------------------ statistics

    @property
    def num_nodes(self) -> int:
        return len(self._nodes) - 1

    # -------------------------------------------------------------- lowering

    def node(self, handle: int) -> tuple:
        return self._nodes[abs(handle)]


class CnfLowering:
    """Incremental Tseitin transformation of a :class:`Circuit` into CNF.

    The lowering keeps a mapping from circuit nodes to SAT variables so the
    same circuit can be lowered incrementally (e.g. as blocking clauses are
    added during specification mining) without re-encoding shared subterms.
    """

    def __init__(self, circuit: Circuit, cnf: CNF | None = None) -> None:
        self.circuit = circuit
        self.cnf = cnf if cnf is not None else CNF()
        self._node_to_var: dict[int, int] = {}
        # The constant TRUE node gets a dedicated SAT variable forced to 1 so
        # that handles can always be mapped uniformly to literals.
        true_var = self.cnf.new_var("const_true")
        self.cnf.add_unit(true_var)
        self._node_to_var[Circuit.TRUE] = true_var

    def fork(self, circuit: Circuit) -> "CnfLowering":
        """An independent continuation of this lowering over ``circuit``.

        ``circuit`` must be a :meth:`Circuit.copy` of the circuit this
        lowering was built on (handles must agree).  The CNF snapshot is an
        array-level memcpy and the node-to-variable map a dict copy, so a
        fork costs far less than re-lowering the shared prefix.
        """
        out = CnfLowering.__new__(CnfLowering)
        out.circuit = circuit
        out.cnf = self.cnf.copy()
        out._node_to_var = dict(self._node_to_var)
        return out

    def literal(self, handle: int) -> int:
        """Return the SAT literal representing ``handle``, emitting clauses
        for any node not lowered yet."""
        index = abs(handle)
        var = self._node_to_var.get(index)
        if var is None:
            var = self._lower_node(index)
        return var if handle > 0 else -var

    def var_literals(self, handles: Iterable[int]) -> list[int]:
        """Map positive *input-variable* handles to SAT literals in bulk.

        A variable node lowers to a fresh SAT variable and no clauses, so
        this skips the generic cone walk of :meth:`literal` — the per-model
        layer mints thousands of order variables and resolves each exactly
        once here."""
        n2v = self._node_to_var
        cnf = self.cnf
        out = []
        for handle in handles:
            var = n2v.get(handle)
            if var is None:
                var = cnf.new_var(self.circuit.node(handle)[1])
                n2v[handle] = var
            out.append(var)
        return out

    def lowered_var(self, handle: int) -> int | None:
        """The SAT variable of ``handle`` if the node was already lowered,
        ``None`` otherwise — a non-forcing peek (no clauses are emitted),
        used to compute the preprocessor's frozen set without growing the
        formula."""
        return self._node_to_var.get(abs(handle))

    def _lower_node(self, index: int) -> int:
        # Iterative DFS to avoid recursion limits on deep circuits.  The
        # Tseitin clauses are normalized by construction (fresh output
        # variable, canonicalized children), so they are batched into flat
        # buffers and installed through the trusted bulk path in one go —
        # lowering a large cone is a hot step of every per-model encoding
        # layer, and per-clause calls were measured to dominate it.
        n2v = self._node_to_var
        cnf = self.cnf
        node_of = self.circuit.node
        buf: list[int] = []
        lengths: list[int] = []
        push = buf.append
        push_len = lengths.append
        stack = [index]
        while stack:
            node_index = stack[-1]
            if node_index in n2v:
                stack.pop()
                continue
            kind = node_of(node_index)
            if kind[0] == "var":
                n2v[node_index] = cnf.new_var(kind[1])
                stack.pop()
                continue
            if kind[0] == "const":
                stack.pop()
                continue
            # AND node: make sure all children are lowered first.
            children = kind[1]
            pending = [abs(c) for c in children if abs(c) not in n2v]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            cnf.num_vars += 1
            out_var = cnf.num_vars
            n2v[node_index] = out_var
            child_lits = [
                n2v[c] if c > 0 else -n2v[-c] for c in children
            ]
            # out -> child_i
            for lit in child_lits:
                push(-out_var)
                push(lit)
                push_len(2)
            # (AND children) -> out
            push(out_var)
            for lit in child_lits:
                push(-lit)
            push_len(len(child_lits) + 1)
        if buf:
            cnf.add_clauses_trusted_flat(buf, lengths)
        return n2v[index]

    def assert_true(self, handle: int) -> None:
        """Constrain the formula so that ``handle`` is true."""
        self.cnf.add_unit(self.literal(handle))

    def assert_clause(self, handles: Sequence[int]) -> None:
        """Constrain the disjunction of the given handles to be true."""
        self.cnf.add_clause([self.literal(h) for h in handles])

    def evaluate(self, handle: int, model: dict[int, bool]) -> bool:
        """Evaluate a handle under a SAT model (for decoding solutions)."""
        if abs(handle) == Circuit.TRUE:
            return handle > 0
        lit = self._node_to_var.get(abs(handle))
        if lit is not None:
            value = model.get(lit, False)
            return value if handle > 0 else not value
        # Node was never lowered; evaluate structurally.
        kind = self.circuit.node(handle)
        if kind[0] == "const":
            value = True
        elif kind[0] == "var":
            raise KeyError(f"input node {handle} has no SAT variable")
        else:
            value = all(self.evaluate(c, model) for c in kind[1])
        return value if handle > 0 else not value
