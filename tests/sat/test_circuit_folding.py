"""Hash-consing and constant-folding guarantees of the gate builder.

The encoder leans on these structural identities for the shared-skeleton
optimization: because equal subformulas get equal literals, the per-model
encoding layer re-deriving a constraint the skeleton already built costs
no new variable or clause.  These tests pin the folding rules down and —
the point of the exercise — assert that the *CNF size* stays flat when
redundant structure is rebuilt.
"""

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
        # one is one variable and n + 1 clauses.
        c = Circuit()
        a, b, x = c.var("a"), c.var("b"), c.var("x")
        before = size(c)
        c.and_(a, b)
        assert size(c) == (before[0] + 1, before[1] + 3)
        c.and_many([a, b, x])
        assert size(c) == (before[0] + 2, before[1] + 7)

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
