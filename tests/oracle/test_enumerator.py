"""Unit tests for the operational enumerator itself (no SAT side)."""

import pytest

from repro.analysis.allocation import build_layout, resolve_allocations
from repro.analysis.ranges import RangeAnalysis
from repro.datatypes.spec import DataTypeImplementation, OperationSpec
from repro.encoding.testprogram import CompiledInvocation, CompiledTest
from repro.fuzz import FuzzProgram
from repro.lsl.instructions import (
    Block,
    BreakIf,
    ConstAssign,
    ContinueIf,
    Load,
    Store,
)
from repro.lsl.program import GlobalDecl, Invocation, Procedure, Program, SymbolicTest
from repro.oracle import INCONCLUSIVE, OK, enumerate_outcomes
from repro.oracle.enumerator import _Enumerator


def outcomes(spec: str, model: str) -> set:
    result = enumerate_outcomes(FuzzProgram.parse(spec).compile(), model)
    assert result.status == OK, result.reason
    return result.outcomes


def compile_statements(threads, ret_regs=()):
    """A minimal CompiledTest over one global ``x`` from raw statements
    (for shapes the fuzz DSL cannot express: loops, branches)."""
    program = Program(name="raw")
    program.add_global(GlobalDecl(name="x", initial=0))
    layout = build_layout(program)
    invocations = []
    for index, statements in enumerate(threads):
        name = f"t{index}"
        regs = list(ret_regs[index]) if index < len(ret_regs) else []
        program.add_procedure(
            Procedure(name=name, params=(), returns=tuple(regs),
                      body=list(statements))
        )
        invocations.append(CompiledInvocation(
            thread=index, position=0, global_index=index, label=name,
            operation=OperationSpec(name=name, proc=name,
                                    has_return=bool(regs)),
            statements=list(statements),
            arg_regs=[], out_regs=[], ret_regs=regs,
        ))
    bodies = [inv.statements for inv in invocations]
    allocation = resolve_allocations(bodies, layout)
    return CompiledTest(
        implementation=DataTypeImplementation(
            name="raw", description="", source="", operations={},
            init_operation=None, reference=None,
        ),
        test=SymbolicTest(
            name="raw", threads=[[Invocation(f"t{i}")]
                                 for i in range(len(threads))],
        ),
        program=program,
        invocations=invocations,
        layout=layout,
        allocation=allocation,
        ranges=RangeAnalysis(layout, allocation).analyze(bodies),
        loop_bounds={},
    )


class TestModelSeparation:
    def test_store_buffering_separates_sc_from_tso(self):
        spec = "x=1 r0=y | y=1 r1=x"
        assert (0, 0) not in outcomes(spec, "sc")
        assert (0, 0) in outcomes(spec, "tso")

    def test_store_load_fence_restores_sc(self):
        spec = "x=1 f(sl) r0=y | y=1 f(sl) r1=x"
        assert outcomes(spec, "relaxed") == outcomes(spec, "sc")

    def test_seriality_shrinks_sc(self):
        # Under atomic operations each whole thread runs without
        # interleaving, so one thread must see the other's store.
        spec = "x=1 r0=y | y=1 r1=x"
        serial = outcomes(spec, "serial")
        assert serial < outcomes(spec, "sc")
        assert serial == {(0, 1), (1, 0)}

    def test_store_forwarding_reads_own_buffer(self):
        # The load must see the thread's own earlier store, whether it is
        # still buffered or already performed.
        assert outcomes("x=1 r0=x", "tso") == {(1,)}
        assert outcomes("x=1 r0=x", "relaxed") == {(1,)}

    def test_same_address_store_order_protects_po_load(self):
        # load-then-store to one address: axiom 1 orders the load first,
        # and forwarding never applies to a later store.
        assert outcomes("r0=x x=1", "relaxed") == {(0,)}

    def test_thin_air_values_on_relaxed(self):
        # The load-buffering cycle with copied values: the encoding leaves
        # value dependencies unordered, so any width-bounded value can
        # circulate.  The enumerator's guess-and-check must find them all.
        spec = "r0=x y=r0 | r1=y x=r1"
        assert outcomes(spec, "sc") == {(0, 0)}
        assert outcomes(spec, "relaxed") == {(v, v) for v in range(4)}


class TestInconclusiveSurfacing:
    def test_step_limit_is_inconclusive_not_a_crash(self):
        # An unbounded loop (possible in hand-built LSL) must surface as
        # INCONCLUSIVE via the step budget.
        loop = Block(tag="L", body=[
            ConstAssign("one", 1),
            ContinueIf(cond="one", tag="L"),
        ])
        compiled = compile_statements([[loop]])
        result = enumerate_outcomes(compiled, "sc", max_steps=100)
        assert result.status == INCONCLUSIVE
        assert "steps" in result.reason

    def test_control_flow_on_loaded_value_is_inconclusive(self):
        branch = Block(tag="L", body=[
            ConstAssign("addr", 1),
            Load(dst="r", addr="addr"),
            BreakIf(cond="r", tag="L"),
            ConstAssign("c", 1),
            Store(addr="addr", src="c"),
        ])
        compiled = compile_statements([[branch]])
        result = enumerate_outcomes(compiled, "relaxed")
        assert result.status == INCONCLUSIVE
        assert "concrete" in result.reason

    def test_taken_break_skipping_accesses_is_inconclusive(self):
        skip = Block(tag="L", body=[
            ConstAssign("one", 1),
            BreakIf(cond="one", tag="L"),
            ConstAssign("addr", 1),
            Store(addr="addr", src="one"),
        ])
        compiled = compile_statements([[skip]])
        result = enumerate_outcomes(compiled, "relaxed")
        assert result.status == INCONCLUSIVE
        assert "skips memory operations" in result.reason

    def test_node_budget_is_inconclusive(self):
        compiled = FuzzProgram.parse("x=1 r0=y | y=1 r1=x").compile()
        result = enumerate_outcomes(compiled, "relaxed", max_nodes=3)
        assert result.status == INCONCLUSIVE
        assert "states" in result.reason

    def test_nodes_count_distinct_states(self, monkeypatch):
        # A memo hit explores nothing new: neither the count nor the
        # budget includes it.
        calls, states = [], set()
        explore = _Enumerator._dfs

        def recording(enumerator, mask, memory, bindings):
            calls.append(mask)
            states.add((
                mask,
                tuple(sorted(memory.items())),
                tuple(sorted((t.index, v) for t, v in bindings.items())),
            ))
            explore(enumerator, mask, memory, bindings)

        monkeypatch.setattr(_Enumerator, "_dfs", recording)
        # Each load reads its own thread's store, forwarded or performed,
        # so both orders of that pair reach one state.
        compiled = FuzzProgram.parse("x=1 r0=x | y=1 r0=y").compile()
        result = enumerate_outcomes(compiled, "relaxed")
        assert len(calls) > len(states) == result.nodes
        assert enumerate_outcomes(
            compiled, "relaxed", max_nodes=result.nodes
        ).ok
        assert not enumerate_outcomes(
            compiled, "relaxed", max_nodes=result.nodes - 1
        ).ok

    def test_inconclusive_result_refuses_verdicts(self):
        compiled = FuzzProgram.parse("x=1 r0=y").compile()
        result = enumerate_outcomes(compiled, "relaxed", max_nodes=1)
        assert result.status == INCONCLUSIVE
        with pytest.raises(RuntimeError):
            result.allows((0,))
