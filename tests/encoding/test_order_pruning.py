"""The conflict-aware (pruned) memory-order encoding.

Two layers of protection for ``repro.encoding.memory`` (the outcome sets
themselves are checked against the operational enumerator in
``tests/oracle/test_catalog_oracle.py``):

* **size regression ceilings** — order-variable and transitivity-clause
  counts of representative catalog tests are pinned to ceilings, so the
  static resolution / conflict restriction / pruned transitivity cannot
  silently regress back toward the paper's dense construction;
* **mechanics** — static resolution facts, constant-folded table entries,
  dead pairs, topological counterexample decoding, the store each
  counterexample load read, and the backend sync in ``EncodedTest.solve``.
"""

import pytest

from repro.datatypes.registry import category_of, get_implementation
from repro.encoding import compile_test, encode_test
from repro.encoding.testprogram import INIT_THREAD
from repro.harness.catalog import get_test
from repro.litmus.catalog import available_litmus_tests, compiled_litmus
from repro.lsl import Invocation, SymbolicTest
from repro.memorymodel.base import get_model
from repro.sat.circuit import Circuit

def _compiled_catalog(implementation_name: str, test_name: str):
    implementation = get_implementation(implementation_name)
    test = get_test(category_of(implementation_name), test_name)
    return compile_test(implementation, test)


class TestSizeCeilings:
    """Pinned ceilings (~15% above the current values) so pruning quality
    cannot silently regress; the paper's dense construction would blow
    every one of them by a wide margin."""

    #: (implementation, test, model) -> (max order vars, max transitivity
    #: clauses, max total CNF clauses).  Dense values for comparison:
    #: msn/T0 has 325 pairs (=325 dense vars) and 15600 dense transitivity
    #: clauses.
    CEILINGS = {
        ("msn", "T0", "relaxed"): (125, 850, 3600),
        ("msn", "T0", "serial"): (140, 1400, 4600),
        ("ms2", "T0", "relaxed"): (145, 1150, 2900),
        ("harris", "Sar", "relaxed"): (300, 3200, 22800),
        ("snark", "D0", "relaxed"): (350, 4200, 18600),
        ("lazylist", "Sac", "relaxed"): (385, 5100, 29900),
    }

    @pytest.mark.parametrize("case", sorted(CEILINGS))
    def test_catalog_sizes_stay_under_ceiling(self, case):
        implementation, test_name, model = case
        max_vars, max_transitivity, max_clauses = self.CEILINGS[case]
        encoded = encode_test(
            _compiled_catalog(implementation, test_name),
            get_model(model),
        )
        stats = encoded.stats
        assert stats.order_vars <= max_vars
        assert stats.transitivity_clauses <= max_transitivity
        assert stats.cnf_clauses <= max_clauses
        # The static resolver must be doing real work on catalog tests.
        assert stats.order_pairs_static > 0
        assert stats.order_vars < stats.order_pairs

    def test_iriw_order_structure_is_tiny(self):
        """IRIW under Relaxed: 45 pairs collapse to a handful of live
        variables, yet totality still forbids the Fig. 2 outcome (checked
        functionally in tests/litmus)."""
        compiled = compiled_litmus(available_litmus_tests()["iriw-fenced"])
        encoded = encode_test(compiled, get_model("relaxed"))
        assert encoded.stats.order_pairs == 45
        assert encoded.stats.order_vars <= 10
        assert encoded.stats.cnf_clauses <= 100

    def test_transitivity_never_exceeds_a_third_of_dense(self):
        """Two clauses per unordered triangle vs the dense construction's
        one per ordered triple of distinct accesses, n(n-1)(n-2): even a
        fully live support graph stays under a third of that."""
        encoded = encode_test(
            _compiled_catalog("msn", "T0"), get_model("relaxed")
        )
        n = encoded.stats.accesses
        assert encoded.stats.transitivity_clauses * 3 <= n * (n - 1) * (n - 2)


class TestStaticResolution:
    def _encoded(self, model_name):
        compiled = compiled_litmus(
            available_litmus_tests()["message-passing"]
        )
        return encode_test(compiled, get_model(model_name))

    def test_preserved_program_order_is_constant(self):
        encoded = self._encoded("sc")
        order = encoded.order
        for thread_encoding in encoded.threads:
            accesses = sorted(thread_encoding.accesses, key=lambda a: a.seq)
            for i, first in enumerate(accesses):
                for second in accesses[i + 1:]:
                    lit = order.resolved(first.index, second.index)
                    assert lit == Circuit.TRUE

    def test_init_accesses_are_statically_first(self):
        # msn/T0 initializes the queue on the init thread.
        encoded = encode_test(
            _compiled_catalog("msn", "T0"), get_model("relaxed")
        )
        order = encoded.order
        init = [a for a in order.accesses if a.thread == INIT_THREAD]
        rest = [a for a in order.accesses if a.thread != INIT_THREAD]
        assert init and rest
        for first in init:
            for second in rest:
                assert order.resolved(first.index, second.index) == Circuit.TRUE
                # ... and the reverse direction folds to FALSE.
                assert order.resolved(second.index, first.index) == Circuit.FALSE

    def test_dead_pairs_raise_and_resolve_to_none(self):
        # Two threads touching distinct locations with no fences: the
        # cross-thread pair is order-irrelevant.
        source = """
        int x;
        int y;
        void store_x() { x = 1; }
        void store_y() { y = 1; }
        """
        from repro.datatypes.spec import DataTypeImplementation, OperationSpec

        implementation = DataTypeImplementation(
            name="disjoint",
            description="two disjoint stores",
            source=source,
            operations={
                "sx": OperationSpec("sx", "store_x"),
                "sy": OperationSpec("sy", "store_y"),
            },
        )
        test = SymbolicTest(
            name="disjoint",
            threads=[[Invocation("sx")], [Invocation("sy")]],
        )
        encoded = encode_test(
            compile_test(implementation, test), get_model("relaxed")
        )
        order = encoded.order
        non_init = [a for a in order.accesses if a.thread != INIT_THREAD]
        assert len(non_init) == 2
        i, j = (a.index for a in non_init)
        assert order.resolved(i, j) is None
        assert order.resolved(j, i) is None


class TestCounterexampleDecoding:
    def test_trace_is_a_linear_extension_of_the_model_order(self):
        """Every ordered fact the solver committed to is preserved by the
        topologically sorted trace."""
        from repro.core.session import CheckSession

        session = CheckSession(get_implementation("msn-unfenced"))
        result = session.check(get_test("queue", "T0"), "relaxed")
        assert not result.passed
        trace = result.counterexample
        assert trace is not None and trace.steps
        # Re-encode and re-solve to get a model + decoding we can inspect.
        compiled = session.compile(get_test("queue", "T0"), "relaxed")
        encoded = encode_test(compiled, get_model("relaxed"))
        assert encoded.solve()
        model = encoded.model_values()
        decoded = encoded.decode_memory_order(model)
        rank = {a.index: i for i, a in enumerate(decoded)}
        for x in decoded:
            for y in decoded:
                if x.index == y.index:
                    continue
                lit = encoded.order.resolved(x.index, y.index)
                if lit is None:
                    continue
                if model.get(abs(lit), False) == (lit > 0):
                    assert rank[x.index] < rank[y.index]

    def test_trace_positions_are_contiguous(self):
        from repro.core.inclusion import run_inclusion_check
        from repro.core.specification import mine_specification

        compiled = _compiled_catalog("msn-unfenced", "T0")
        spec = mine_specification(compiled)
        outcome = run_inclusion_check(compiled, get_model("relaxed"), spec)
        assert not outcome.passed
        steps = outcome.counterexample.steps
        assert [step.position for step in steps] == list(range(len(steps)))

    def test_trace_names_each_load_source(self):
        """Every executed load of a counterexample names exactly one
        source: an executed store to its address holding its value, or the
        location's initial value."""
        from repro.core.counterexample import build_trace
        from repro.core.specification import mine_specification
        from repro.sat.bitvec import BitVecBuilder

        compiled = _compiled_catalog("msn-unfenced", "T0")
        spec = mine_specification(compiled)
        encoded = encode_test(compiled, get_model("relaxed"))
        encoded.require_not_in(spec.observations)
        assert encoded.solve()
        model = encoded.model_values()
        labels = [slot.label for slot in encoded.observation_slots]
        trace = build_trace(encoded, "observation", labels)
        assert trace.observation not in spec

        def evaluate(lit: int, model: dict[int, bool]) -> bool:
            return model.get(abs(lit), False) == (lit > 0)

        executed_loads = [
            a for a in encoded.order.accesses
            if a.is_load and evaluate(a.guard, model)
        ]
        for load in executed_loads:
            selectors = encoded.order.sources[load.index]
            assert sum(model.get(lit, False) for _, lit in selectors) == 1

        loads = [step for step in trace.steps if step.kind == "load"]
        assert len(loads) == len(executed_loads)
        assert any(step.source is not None for step in loads)
        for step in loads:
            if step.source is None:
                initial = encoded.ctx.initial_value(step.address)
                assert BitVecBuilder.decode(
                    initial, lambda bit: evaluate(bit, model)
                ) == step.value, step.format()
                assert step.format().endswith("<- init")
            else:
                store = trace.steps[step.source]
                assert store.kind == "store", step.format()
                assert store.address == step.address, step.format()
                assert store.value == step.value, step.format()
                assert step.format().endswith(f"<- #{step.source}")


class TestSolveSyncRegression:
    """EncodedTest.solve must never hand the backend an assumption literal
    whose defining clauses have not been synced (a gate built after the
    first solve writes its clauses into the CNF, not into the backend)."""

    def _encoded(self):
        litmus = available_litmus_tests()["store-buffering"]
        return encode_test(compiled_litmus(litmus), get_model("serial"))

    def test_fresh_composite_assumption_after_first_solve(self):
        encoded = self._encoded()
        assert encoded.solve() is True
        # Build a *new* composite gate after the backend has synced: its
        # clauses are in the CNF but not yet in the backend when solve()
        # is entered.
        circuit = encoded.ctx.circuit
        handles = encoded.observation_equals((0, 1))
        both = circuit.and_many(handles)
        contradiction = circuit.and_(both, -handles[0])
        assert encoded.solve(assumptions=[contradiction]) is False
        # Every clause of the CNF is in the backend.
        assert encoded._synced_clauses == len(encoded.cnf.clauses)
        # The formula itself is untouched by the failed assumption.
        assert encoded.solve() is True

    def test_gate_built_after_first_solve_is_synced_before_its_solve(
        self, monkeypatch
    ):
        encoded = self._encoded()
        assert encoded.solve() is True
        handles = encoded.observation_equals((1, 0))
        composite = encoded.ctx.circuit.and_many(handles)
        # The gate's clauses were written into the CNF when it was built.
        assert encoded._synced_clauses < len(encoded.cnf.clauses)
        backend = encoded._backend
        observed = []
        original = backend.solve

        def recording_solve(*args, **kwargs):
            observed.append(encoded._synced_clauses == len(encoded.cnf.clauses))
            return original(*args, **kwargs)

        monkeypatch.setattr(backend, "solve", recording_solve)
        assert encoded.solve(assumptions=[composite]) is True
        # When the backend's solve started, every CNF clause was in it.
        assert observed == [True]
