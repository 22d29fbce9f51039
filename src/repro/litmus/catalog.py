"""Litmus tests for comparing memory models (Section 2.3.3, Fig. 2).

Each litmus test is phrased as a tiny "data type" whose operations are the
per-thread instruction sequences; a helper asks whether a given observation
(the tuple of return values) is reachable under a memory model.  The catalog
covers the classic shapes:

* ``store-buffering`` (SB) — distinguishes SC from TSO/PSO/Relaxed;
* ``message-passing`` (MP) — distinguishes {SC, TSO} from PSO/Relaxed and
  shows the effect of store-store / load-load fences;
* ``load-buffering`` (LB) — allowed only on models that reorder loads ahead
  of later stores (Relaxed);
* ``iriw-fenced`` — Fig. 2 of the paper: an execution with load-load fences
  that Relaxed forbids (because it orders all stores globally) but weaker
  architectural models such as PowerPC do not rule out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.datatypes.spec import DataTypeImplementation, OperationSpec
from repro.encoding import compile_test, encode_test
from repro.encoding.testprogram import CompiledTest
from repro.lsl.program import Invocation, SymbolicTest
from repro.memorymodel.base import MemoryModel, get_model
from repro.sat.backend import BackendFactory
from repro.sat.solver import SolverStats


@dataclass
class LitmusTest:
    """A litmus test: an implementation plus the observation of interest."""

    name: str
    implementation: DataTypeImplementation
    threads: list[str]              # operation names, one per thread
    observation: tuple[int, ...]    # the "interesting" outcome
    description: str = ""

    def symbolic_test(self) -> SymbolicTest:
        return SymbolicTest(
            name=self.name,
            threads=[[Invocation(op)] for op in self.threads],
        )


def _implementation(name, source, ops) -> DataTypeImplementation:
    return DataTypeImplementation(
        name=name,
        description=f"litmus test {name}",
        source=source,
        operations=ops,
        init_operation=None,
        reference=None,
    )


_SB_SOURCE = """
int x;
int y;
int left() { x = 1; return y; }
int right() { y = 1; return x; }
int left_fenced() { x = 1; fence("store-load"); return y; }
int right_fenced() { y = 1; fence("store-load"); return x; }
"""

_MP_SOURCE = """
int data;
int flag;
int observed_flag;
void producer() { data = 1; flag = 1; }
void producer_fenced() { data = 1; fence("store-store"); flag = 1; }
int consumer() {
    int f;
    int d;
    f = flag;
    d = data;
    observed_flag = f;
    return d;
}
int consumer_fenced() {
    int f;
    int d;
    f = flag;
    fence("load-load");
    d = data;
    observed_flag = f;
    return d;
}
int read_flag() { return observed_flag; }
"""

_LB_SOURCE = """
int x;
int y;
int lb_left() { int r; r = x; y = 1; return r; }
int lb_right() { int r; r = y; x = 1; return r; }
int lb_left_fenced() { int r; r = x; fence("load-store"); y = 1; return r; }
int lb_right_fenced() { int r; r = y; fence("load-store"); x = 1; return r; }
"""

_IRIW_SOURCE = """
int x;
int y;
int r1a;
int r1b;
int r2a;
int r2b;
void write_x() { x = 1; }
void write_y() { y = 1; }
void read_xy() {
    int a;
    int b;
    a = x;
    fence("load-load");
    b = y;
    r1a = a;
    r1b = b;
}
void read_yx() {
    int a;
    int b;
    a = y;
    fence("load-load");
    b = x;
    r2a = a;
    r2b = b;
}
int get_r1a() { return r1a; }
"""


def _sb() -> LitmusTest:
    ops = {
        "left": OperationSpec("left", "left", has_return=True),
        "right": OperationSpec("right", "right", has_return=True),
        "left_fenced": OperationSpec("left_fenced", "left_fenced", has_return=True),
        "right_fenced": OperationSpec("right_fenced", "right_fenced", has_return=True),
    }
    return LitmusTest(
        name="store-buffering",
        implementation=_implementation("sb", _SB_SOURCE, ops),
        threads=["left", "right"],
        observation=(0, 0),
        description="both threads read 0 after writing: forbidden by SC, "
        "allowed by TSO/PSO/Relaxed",
    )


def _sb_fenced() -> LitmusTest:
    base = _sb()
    return LitmusTest(
        name="store-buffering+fences",
        implementation=base.implementation,
        threads=["left_fenced", "right_fenced"],
        observation=(0, 0),
        description="store-load fences forbid the relaxed outcome again",
    )


def _mp(fenced: bool) -> LitmusTest:
    ops = {
        "producer": OperationSpec("producer", "producer"),
        "producer_fenced": OperationSpec("producer_fenced", "producer_fenced"),
        "consumer": OperationSpec("consumer", "consumer", has_return=True),
        "consumer_fenced": OperationSpec(
            "consumer_fenced", "consumer_fenced", has_return=True
        ),
        "read_flag": OperationSpec("read_flag", "read_flag", has_return=True),
    }
    implementation = _implementation("mp", _MP_SOURCE, ops)
    threads = (
        ["producer_fenced", "consumer_fenced"] if fenced
        else ["producer", "consumer"]
    )
    name = "message-passing+fences" if fenced else "message-passing"
    return LitmusTest(
        name=name,
        implementation=implementation,
        threads=threads + ["read_flag"],
        # (consumer data result, flag value it observed)
        observation=(0, 1),
        description="the consumer sees the flag but stale data: forbidden by "
        "SC/TSO, allowed by PSO/Relaxed unless fenced",
    )


def _lb(fenced: bool) -> LitmusTest:
    ops = {
        "lb_left": OperationSpec("lb_left", "lb_left", has_return=True),
        "lb_right": OperationSpec("lb_right", "lb_right", has_return=True),
        "lb_left_fenced": OperationSpec(
            "lb_left_fenced", "lb_left_fenced", has_return=True
        ),
        "lb_right_fenced": OperationSpec(
            "lb_right_fenced", "lb_right_fenced", has_return=True
        ),
    }
    implementation = _implementation("lb", _LB_SOURCE, ops)
    threads = (
        ["lb_left_fenced", "lb_right_fenced"] if fenced
        else ["lb_left", "lb_right"]
    )
    return LitmusTest(
        name="load-buffering+fences" if fenced else "load-buffering",
        implementation=implementation,
        threads=threads,
        observation=(1, 1),
        description="both loads see the other thread's later store: requires "
        "load->store reordering (Relaxed only)",
    )


def _iriw() -> LitmusTest:
    ops = {
        "write_x": OperationSpec("write_x", "write_x"),
        "write_y": OperationSpec("write_y", "write_y"),
        "read_xy": OperationSpec("read_xy", "read_xy"),
        "read_yx": OperationSpec("read_yx", "read_yx"),
        "get_r1a": OperationSpec("get_r1a", "get_r1a", has_return=True),
    }
    implementation = _implementation("iriw", _IRIW_SOURCE, ops)
    return LitmusTest(
        name="iriw-fenced",
        implementation=implementation,
        threads=["write_x", "write_y", "read_xy", "read_yx"],
        observation=(),
        description="Fig. 2: two readers disagree on the order of two "
        "independent writes despite load-load fences; impossible on Relaxed "
        "because it orders all stores",
    )


def available_litmus_tests() -> dict[str, LitmusTest]:
    tests = [
        _sb(),
        _sb_fenced(),
        _mp(False),
        _mp(True),
        _lb(False),
        _lb(True),
        _iriw(),
    ]
    return {t.name: t for t in tests}


#: Compilation is model-independent, so litmus tests are compiled once and
#: shared across all memory-model queries (a sweep over sc/tso/pso/relaxed
#: compiles each shape once instead of four times).  The key is the test's
#: *content* — not just its name — so a caller-supplied variant that reuses
#: a catalog name still gets its own compilation.
_COMPILED_CACHE: dict[tuple, CompiledTest] = {}


def _litmus_cache_key(litmus: LitmusTest) -> tuple:
    return (
        litmus.name,
        litmus.implementation.source,
        tuple(litmus.threads),
        # OperationSpec is a dataclass, so repr captures the full contents
        # (proc mapping, arity, ...), not just the operation names.
        repr(sorted(litmus.implementation.operations.items())),
    )


def compiled_litmus(litmus: LitmusTest) -> CompiledTest:
    """The (cached) compiled form of a litmus test."""
    key = _litmus_cache_key(litmus)
    cached = _COMPILED_CACHE.get(key)
    if cached is None:
        cached = compile_test(litmus.implementation, litmus.symbolic_test())
        _COMPILED_CACHE[key] = cached
    return cached


@dataclass
class LitmusOutcome:
    """Verdict of one litmus query plus the solver work it took."""

    allowed: bool
    backend: str
    solver_stats: SolverStats | None
    #: Memory-order encoding counters (``EncodingStatistics.order_dict``).
    order: dict | None = None


def observation_outcome(
    litmus: LitmusTest,
    model: MemoryModel | str,
    observation: tuple[int, ...] | None = None,
    backend_factory: BackendFactory | None = None,
) -> LitmusOutcome:
    """Like :func:`observation_allowed`, but also reports which backend ran
    and its solver counters (for the benchmark JSON trajectories)."""
    model = get_model(model)
    compiled = compiled_litmus(litmus)
    encoded = encode_test(compiled, model, backend_factory=backend_factory)
    target = observation if observation is not None else litmus.observation
    handles = encoded.observation_equals(target)
    allowed = bool(encoded.solve(assumptions=handles))
    stats = encoded.solver_stats
    return LitmusOutcome(
        allowed=allowed,
        backend=encoded.backend_name,
        solver_stats=stats.copy() if stats is not None else None,
        order=encoded.stats.order_dict(),
    )


def observation_allowed(
    litmus: LitmusTest,
    model: MemoryModel | str,
    observation: tuple[int, ...] | None = None,
    backend_factory: BackendFactory | None = None,
) -> bool:
    """Is the litmus observation reachable under the given memory model?"""
    return observation_outcome(
        litmus, model, observation, backend_factory=backend_factory
    ).allowed


def iriw_allowed(
    model: MemoryModel | str,
    backend_factory: BackendFactory | None = None,
) -> bool:
    """Fig. 2: can the two readers observe the writes in opposite orders?

    Reader 1 sees x=1 then y=0, reader 2 sees y=1 then x=0 (with load-load
    fences between the reads).  Relaxed forbids it; weaker models (PowerPC,
    IA-64) would not.
    """
    litmus = _iriw()
    model = get_model(model)
    compiled = compiled_litmus(litmus)
    encoded = encode_test(compiled, model, backend_factory=backend_factory)
    # Each reader stores what it saw into r1a/r1b/r2a/r2b unconditionally,
    # so the outcome is "every such store writes the wanted value".
    layout = compiled.layout
    wanted = {"r1a": 1, "r1b": 0, "r2a": 1, "r2b": 0}
    handles = []
    for name, value in wanted.items():
        base = layout.global_base(name)
        for thread in encoded.threads:
            for access in thread.accesses:
                if access.is_store and access.addr_candidates == [base]:
                    handles.append(
                        encoded.ctx.bvb.eq_const(access.value, value)
                    )
    return bool(encoded.solve(assumptions=handles))
