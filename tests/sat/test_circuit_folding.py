"""Hash-consing and constant-folding guarantees of the gate builder.

The encoder leans on these structural identities for the shared-skeleton
optimization: because equal subformulas get equal literals, the per-model
encoding layer re-deriving a constraint the skeleton already built costs
no new variable or clause.  These tests pin the folding rules down and —
the point of the exercise — assert that the *CNF size* stays flat when
redundant structure is rebuilt.
"""

import itertools

from repro.sat import Circuit


def size(c: Circuit) -> tuple[int, int]:
    """Variables and clauses the builder has written so far."""
    return c.cnf.num_vars, c.cnf.num_clauses


class TestConstantFolding:
    def test_and_constants(self):
        c = Circuit()
        a = c.var("a")
        assert c.and_(a, c.TRUE) == a
        assert c.and_(c.TRUE, a) == a
        assert c.and_(a, c.FALSE) == c.FALSE
        assert c.and_(c.FALSE, a) == c.FALSE
        assert c.and_(c.TRUE, c.TRUE) == c.TRUE

    def test_or_constants(self):
        c = Circuit()
        a = c.var("a")
        assert c.or_(a, c.FALSE) == a
        assert c.or_(c.FALSE, a) == a
        assert c.or_(a, c.TRUE) == c.TRUE
        assert c.or_(c.FALSE, c.FALSE) == c.FALSE

    def test_complement_and_idempotence(self):
        c = Circuit()
        a = c.var("a")
        assert c.and_(a, a) == a
        assert c.and_(a, -a) == c.FALSE
        assert c.or_(a, a) == a
        assert c.or_(a, -a) == c.TRUE

    def test_nary_folds(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        assert c.and_many([]) == c.TRUE
        assert c.or_many([]) == c.FALSE
        assert c.and_many([a]) == a
        assert c.and_(a, b, -a) == c.FALSE
        assert c.and_(c.TRUE, a, c.TRUE, b, c.TRUE) == c.and_(a, b)

    def test_derived_gate_folds(self):
        c = Circuit()
        a = c.var("a")
        assert c.implies(c.FALSE, a) == c.TRUE
        assert c.implies(a, c.TRUE) == c.TRUE
        assert c.implies(a, a) == c.TRUE
        assert c.xor(a, a) == c.FALSE
        assert c.xor(a, -a) == c.TRUE
        assert c.iff(a, a) == c.TRUE
        assert c.ite(c.TRUE, a, -a) == a
        assert c.ite(c.FALSE, a, -a) == -a
        assert c.ite(c.var("cond"), a, a) == a


class TestCanonicalization:
    def test_commutativity(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        assert c.and_(a, b) == c.and_(b, a)
        assert c.or_(a, b) == c.or_(b, a)
        assert c.and_(a, b, c.var("x")) != c.and_(a, b)

    def test_duplicate_children_collapse(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        assert c.and_(a, b, a, b) == c.and_(a, b)
        assert c.or_(a, b, b, a) == c.or_(a, b)

    def test_nested_ands_stay_narrow_but_share(self):
        # Nested conjunctions are deliberately NOT flattened into wide
        # n-ary nodes (wide gates lower to wide Tseitin clauses that
        # defeat bounded variable elimination); instead the nested form
        # is consed, so rebuilding it in any association order is free.
        c = Circuit()
        a, b, x = c.var("a"), c.var("b"), c.var("x")
        nested = c.and_(c.and_(a, b), x)
        assert c.and_(x, c.and_(a, b)) == nested
        assert nested != c.and_(a, b, x)
        # De Morgan makes or_ the dual, so nested ORs cons the same way.
        assert c.or_(x, c.or_(a, b)) == c.or_(c.or_(a, b), x)

    def test_de_morgan_duality(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        assert c.or_(a, b) == -c.and_(-a, -b)
        assert c.and_(a, b) == -c.or_(-a, -b)


class TestCnfSize:
    """Folding must show up as *a smaller CNF*, not just equal literals."""

    def test_rebuilding_same_expression_adds_no_clauses(self):
        c = Circuit()
        a, b, x = c.var("a"), c.var("b"), c.var("x")
        first = c.ite(x, c.and_(a, b), c.or_(a, b))
        before = size(c)
        second = c.ite(x, c.and_(a, b), c.or_(a, b))
        assert second == first
        assert size(c) == before

    def test_commuted_rebuild_adds_no_clauses(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        first = c.and_(a, b)
        before = size(c)
        assert c.and_(b, a) == first
        assert c.or_(-b, -a) == -first
        assert size(c) == before

    def test_constant_folds_add_no_clauses(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        c.and_(a, b)
        before = size(c)
        c.and_(a, c.TRUE)
        c.and_(a, -a)
        c.or_(a, c.TRUE)
        c.ite(c.TRUE, a, b)
        c.and_(c.and_(a, b), c.TRUE)
        assert size(c) == before

    def test_each_gate_writes_its_clauses_once(self):
        # A binary AND gate is one variable and three clauses; an n-ary
        # one is one variable and n + 1 clauses; an XOR or an ITE is one
        # variable and four clauses.  Rebuilding any of them adds none.
        c = Circuit()
        a, b, x = c.var("a"), c.var("b"), c.var("x")
        before = size(c)
        c.and_(a, b)
        assert size(c) == (before[0] + 1, before[1] + 3)
        c.and_many([a, b, x])
        assert size(c) == (before[0] + 2, before[1] + 7)
        c.xor(a, b)
        assert size(c) == (before[0] + 3, before[1] + 11)
        c.ite(x, a, b)
        assert size(c) == (before[0] + 4, before[1] + 15)
        c.and_(b, a)
        c.and_many([x, b, a])
        c.xor(b, a)
        c.ite(x, a, b)
        assert size(c) == (before[0] + 4, before[1] + 15)

    def test_redundant_input_shares_structure(self):
        # Re-conjoining duplicate operands reuses the consed canonical
        # node instead of growing a new one.
        c = Circuit()
        a, b, x = c.var("a"), c.var("b"), c.var("x")
        abx = c.and_(a, b, x)
        before = size(c)
        assert c.and_(abx, abx) == abx
        assert c.and_(x, b, a) == abx
        assert c.and_(a, b, x, a, b) == abx
        assert size(c) == before

    def test_accumulation_loop_is_linear(self):
        # g = and_(g, step_i) over n steps must write O(n) clauses, not the
        # O(n^2) a naive re-expansion of ever-wider children would.
        c = Circuit()
        steps = [c.var(f"s{i}") for i in range(64)]
        base_vars, base_clauses = size(c)
        g = c.TRUE
        for s in steps:
            g = c.and_(g, s)
        assert c.cnf.num_vars - base_vars <= len(steps)
        assert c.cnf.num_clauses - base_clauses <= 3 * len(steps)


class TestFork:
    def test_fork_reuses_skeleton_gates(self):
        # The skeleton/layer split forks the builder; a gate the skeleton
        # built keeps its literal on the fork, and rebuilding it there
        # writes nothing.
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        ab = c.and_(a, b)
        layer = c.copy()
        assert list(layer.cnf.clauses) == list(c.cnf.clauses)
        before = size(layer)
        assert layer.and_(a, b) == ab
        assert layer.and_(b, a) == ab
        assert layer.or_(-a, -b) == -ab
        assert size(layer) == before

    def test_fork_gates_never_reach_the_original(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        ab = c.and_(a, b)
        before = size(c)
        layer = c.copy()
        m = layer.var("m")
        gate = layer.and_(ab, m)
        assert size(layer) == (before[0] + 2, before[1] + 3)
        assert size(c) == before
        # The original's next variable gets the number the fork gave m.
        # Had the fork's hash entry for (ab, m) leaked, and_ would return
        # the fork's gate without writing its clauses here.
        other = c.var("other")
        assert other == m
        assert c.and_(ab, other) == gate
        assert size(c) == (before[0] + 2, before[1] + 3)

    def test_fork_xor_and_ite_never_reach_the_original(self):
        c = Circuit()
        a, b, x = c.var("a"), c.var("b"), c.var("x")
        g = c.xor(a, b)
        m = c.ite(x, a, b)
        before = size(c)
        layer = c.copy()
        assert layer.xor(b, a) == g
        assert layer.ite(-x, b, a) == m
        assert size(layer) == before
        y = layer.var("y")
        fork_xor = layer.xor(g, y)
        fork_ite = layer.ite(y, g, m)
        assert size(layer) == (before[0] + 3, before[1] + 8)
        assert size(c) == before
        assert (g, y) not in c._xor_cache
        assert (y, g, m) not in c._ite_cache
        # Rebuilt on the original, the gates write their own clauses.
        other = c.var("other")
        assert other == y
        assert c.xor(g, other) == fork_xor
        assert c.ite(other, g, m) == fork_ite
        assert size(c) == (before[0] + 3, before[1] + 8)


def truth_table(c: Circuit, inputs: list[int], out: int):
    """Brute force over every variable of the builder's CNF: for each
    assignment of ``inputs``, the set of values ``out`` takes in the
    CNF's models.  Clauses that leave a gate's output free, or that
    forbid every value, under some input assignment show up as a set
    other than one value."""
    clauses = list(c.cnf.clauses)
    table: dict[tuple[bool, ...], set[bool]] = {}
    for bits in itertools.product((False, True), repeat=c.cnf.num_vars):
        assignment = dict(enumerate(bits, start=1))
        if all(any(holds(lit, assignment) for lit in cl) for cl in clauses):
            key = tuple(assignment[v] for v in inputs)
            table.setdefault(key, set()).add(holds(out, assignment))
    return table


def holds(lit: int, assignment: dict[int, bool]) -> bool:
    return assignment[abs(lit)] == (lit > 0)


def assert_computes(c: Circuit, inputs: list[int], out: int, semantics):
    """The CNF forces ``out`` to ``semantics(assignment)`` under every
    assignment of the input variables (with the constant-TRUE variable
    set)."""
    table = truth_table(c, inputs, out)
    for values in itertools.product((False, True), repeat=len(inputs)):
        assignment = {c.TRUE: True, **dict(zip(inputs, values))}
        assert table.get(values) == {semantics(assignment)}, values


def signed_operands(c: Circuit, *variables: int) -> list[int]:
    """Each variable in both signs, and both constants."""
    return [*variables, *(-v for v in variables), c.TRUE, c.FALSE]


class TestXorIteGates:
    """The one-variable XOR and ITE gates: folding, sign normalisation
    and their own structural hashes."""

    def test_every_xor_fold_and_sign_matches_its_truth_table(self):
        # 36 operand pairs, each on a fresh builder: a constant operand,
        # a == b and a == -b fold to no gate; the rest are the gate in
        # all four sign combinations.
        for x, y in itertools.product(range(6), repeat=2):
            c = Circuit()
            a, b = c.var("a"), c.var("b")
            ops = signed_operands(c, a, b)
            lx, ly = ops[x], ops[y]
            before = size(c)
            out = c.xor(lx, ly)
            folds = abs(lx) == 1 or abs(ly) == 1 or abs(lx) == abs(ly)
            assert size(c) == (
                before if folds else (before[0] + 1, before[1] + 4)
            )
            assert_computes(
                c, [a, b], out, lambda v: holds(lx, v) != holds(ly, v)
            )

    def test_every_ite_fold_and_sign_matches_its_truth_table(self):
        # 512 operand triples, each on a fresh builder.  Three distinct
        # non-constant variables build the gate; every fold (a constant
        # cond, then == ±else, a constant branch, a branch on cond's
        # variable) returns an operand or builds one AND, OR or XOR.
        for i, j, k in itertools.product(range(8), repeat=3):
            c = Circuit()
            p, q, r = c.var("p"), c.var("q"), c.var("r")
            ops = signed_operands(c, p, q, r)
            lc, lt, le = ops[i], ops[j], ops[k]
            before = size(c)
            out = c.ite(lc, lt, le)
            added = (size(c)[0] - before[0], size(c)[1] - before[1])
            variables = {abs(lc), abs(lt), abs(le)}
            if len(variables) == 3 and c.TRUE not in variables:
                assert added == (1, 4)
            else:
                assert added in ((0, 0), (1, 3), (1, 4))
            assert_computes(
                c, [p, q, r], out,
                lambda v: holds(lt, v) if holds(lc, v) else holds(le, v),
            )

    def test_xor_normalises_order_and_signs(self):
        c = Circuit()
        a, b = c.var("a"), c.var("b")
        g = c.xor(a, b)
        before = size(c)
        for x, y in itertools.product((a, -a), (b, -b)):
            flip = (x < 0) != (y < 0)
            assert c.xor(x, y) == (-g if flip else g)
            assert c.xor(y, x) == (-g if flip else g)
        assert c.xor(b, a) == g
        assert -c.xor(-a, b) == g
        assert c.iff(a, b) == -g
        assert size(c) == before

    def test_ite_normalises_branch_order_and_signs(self):
        c = Circuit()
        p, q, r = c.var("p"), c.var("q"), c.var("r")
        for t, e in itertools.product((q, -q), (r, -r)):
            g = c.ite(p, t, e)
            before = size(c)
            assert c.ite(-p, e, t) == g
            assert -c.ite(p, -t, -e) == g
            assert -c.ite(-p, -e, -t) == g
            assert size(c) == before
        # Four sign patterns of (then, else) up to negation: two gates.
        assert len(c._ite_cache) == 2

    def test_ternary_and_key_does_not_answer_an_ite(self):
        # The AND, XOR and ITE hashes are separate: and_(a, b, x) is
        # cached under the key (a, b, x) that ite(a, b, x) looks up.
        c = Circuit()
        a, b, x = c.var("a"), c.var("b"), c.var("x")
        conj = c.and_(a, b, x)
        parity = c.xor(a, b)
        mux = c.ite(a, b, x)
        assert mux not in (conj, parity)
        assert_computes(
            c, [a, b, x], mux, lambda v: v[b] if v[a] else v[x]
        )
