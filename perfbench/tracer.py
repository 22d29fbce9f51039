"""Span recorder for the traced benchmark run.

The checker has no tracer of its own yet, so the benchmark wraps the
public entry point of each ``repro`` layer from outside: every call
records a span (name, start, end, parent) in memory, and hooks read the
exact counts the layer already exposes (encoding sizes, solver counter
deltas, preprocessing and synthesis statistics).  The wrappers are
installed only for the traced pass and removed afterwards, so end-to-end
metrics always come from unwrapped code.

A layer's self time is the duration of its spans minus the part covered
by their child spans.  Self times of every span plus ``other_s`` (wall
time outside any span) add up to the traced wall by construction.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

#: (span name, module, attribute): the wrapped public entry points.  A
#: dotted attribute names a method; the span is recorded on every
#: instance.  Two backends share the ``solver`` span: the preprocessing
#: front end and the CDCL kernel behind it.
LAYERS = (
    ("lang", "repro.lang.lower", "compile_c"),
    ("analysis", "repro.encoding.testprogram", "compile_test"),
    ("specification", "repro.core.specification", "mine_specification"),
    ("encoding", "repro.encoding.formula", "encode_test"),
    ("simplify", "repro.sat.simplify", "Simplifier.preprocess"),
    ("solver", "repro.sat.simplify", "SimplifyingBackend.solve"),
    ("solver", "repro.sat.backend", "InternalBackend.solve"),
    ("inclusion.assertion", "repro.core.inclusion", "run_assertion_check"),
    ("inclusion.inclusion", "repro.core.inclusion", "run_inclusion_check"),
    ("counterexample", "repro.core.counterexample", "build_trace"),
    ("session", "repro.core.session", "CheckSession.check"),
    ("synthesize", "repro.core.synthesize", "synthesize_fences"),
    ("oracle.enumerator", "repro.oracle.enumerator", "enumerate_outcomes"),
    ("rfcheck", "repro.rfcheck.miner", "rfcheck_outcomes"),
    ("oracle.sat_engine", "repro.oracle.differ", "mine_sat_outcomes"),
    ("fuzz", "repro.fuzz.harness", "run_fuzz"),
    ("fuzz.generate", "repro.fuzz.generator", "generate_corpus"),
    ("matrix", "repro.harness.matrix", "run_matrix"),
)

#: Span name -> per-layer metric carrying its self time.
SELF_TIME_METRICS = {
    "lang": "lang.compile_s",
    "analysis": "analysis.compile_s",
    "specification": "specification.mine_s",
    "encoding": "encoding.encode_s",
    "simplify": "simplify.preprocess_s",
    "solver": "solver.search_s",
    "inclusion.assertion": "inclusion.assertion_s",
    "inclusion.inclusion": "inclusion.inclusion_s",
    "counterexample": "counterexample.decode_s",
    "session": "session.self_s",
    "synthesize": "synthesize.self_s",
    "oracle.enumerator": "oracle.enumerator_s",
    "rfcheck": "rfcheck.mine_s",
    "oracle.sat_engine": "oracle.sat_engine_s",
    "fuzz": "fuzz.self_s",
    "fuzz.generate": "fuzz.generate_s",
    "matrix": "matrix.overhead_s",
}

#: Span name -> counter of its calls (outermost calls only for spans that
#: nest into themselves, such as the two solver backends).
CALL_COUNTERS = {
    "analysis": "analysis.calls",
    "specification": "specification.calls",
    "encoding": "encoding.calls",
    "solver": "solver.calls",
    "counterexample": "counterexample.calls",
}

#: Counters the hooks accumulate, in output order.
COUNTERS = (
    "analysis.calls",
    "specification.calls",
    "encoding.calls",
    "encoding.clauses",
    "encoding.vars",
    "encoding.skeleton_s",
    "encoding.layer_s",
    "encoding.skeleton_shared",
    "simplify.engaged",
    "simplify.vars_eliminated",
    "simplify.clauses_subsumed",
    "solver.calls",
    "solver.conflicts",
    "solver.decisions",
    "solver.propagations",
    "counterexample.calls",
    "synthesize.solves",
    "synthesize.correction_sets",
    "synthesize.core_size",
)


class Tracer:
    """In-memory spans plus exact counters, filled by the wrappers."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._open_names: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name, function):
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        calls = CALL_COUNTERS.get(name)
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            outermost = name not in tracer._open_names
            state = before(args) if before is not None and outermost else None
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, time.perf_counter(), 0.0, parent]
            tracer.spans.append(span)
            tracer._stack.append(index)
            tracer._open_names.append(name)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                tracer._open_names.pop()
            if outermost:
                if calls is not None:
                    tracer.counters[calls] += 1
                if after is not None:
                    after(tracer.counters, args, result, state)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS`, rebinding each
        module-level name wherever a loaded module imported it."""
        for name, module_name, attribute in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[method]
                self._patch(owner, method, original, self._wrap(name, original))
                continue
            original = getattr(module, attribute)
            wrapper = self._wrap(name, original)
            for loaded in list(sys.modules.values()):
                if getattr(loaded, attribute, None) is original:
                    self._patch(loaded, attribute, original, wrapper)

    def _patch(self, owner, attribute, original, wrapper) -> None:
        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # ------------------------------------------------------------ analysis

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, excluding time covered by child spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return totals

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)


# ------------------------------------------------------------------ hooks
#
# ``before`` hooks run on entry of an outermost span and return state for
# the matching ``after`` hook, which adds to the counters.


def _solver_before(args):
    stats = args[0].stats()
    return stats.copy() if stats is not None else None


def _solver_after(counters, args, result, before) -> None:
    stats = args[0].stats()
    if stats is None or before is None:
        return
    delta = stats.since(before)
    counters["solver.conflicts"] += delta.conflicts
    counters["solver.decisions"] += delta.decisions
    counters["solver.propagations"] += delta.propagations


def _encoding_after(counters, args, encoded, _state) -> None:
    stats = encoded.stats
    counters["encoding.clauses"] += stats.cnf_clauses
    counters["encoding.vars"] += stats.cnf_variables
    counters["encoding.skeleton_s"] += stats.skeleton_seconds
    counters["encoding.layer_s"] += stats.layer_seconds
    counters["encoding.skeleton_shared"] += bool(stats.skeleton_shared)


def _simplify_after(counters, args, _survivors, _state) -> None:
    stats = args[0].stats
    counters["simplify.engaged"] += 1
    counters["simplify.vars_eliminated"] += stats.vars_eliminated
    counters["simplify.clauses_subsumed"] += stats.clauses_subsumed


def _synthesize_after(counters, args, result, _state) -> None:
    counters["synthesize.solves"] += result.stats.solves
    counters["synthesize.correction_sets"] += result.stats.correction_sets
    counters["synthesize.core_size"] += result.stats.core_size


_BEFORE = {"solver": _solver_before}
_AFTER = {
    "solver": _solver_after,
    "encoding": _encoding_after,
    "simplify": _simplify_after,
    "synthesize": _synthesize_after,
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer, wall: float, cache_stats, verdicts: int
) -> dict:
    """Every per-layer metric of one traced pass, as name -> value.

    ``cache_stats`` are the public ``CheckSession.cache_stats`` counters
    of the pass's sessions (they give the hit ratios); ``verdicts`` is
    how many verdicts the pass produced.
    """
    counters = tracer.counters
    self_times = tracer.self_times()
    metrics: dict[str, float] = {}
    for span, metric in SELF_TIME_METRICS.items():
        metrics[metric] = self_times.get(span, 0.0)
    for name in COUNTERS:
        if name != "encoding.skeleton_shared":
            metrics[name] = counters.get(name, 0.0)
    metrics["encoding.skeleton_shared_ratio"] = _ratio(
        counters.get("encoding.skeleton_shared", 0.0),
        counters.get("encoding.calls", 0.0),
    )
    metrics["solver.propagations_per_s"] = _ratio(
        counters.get("solver.propagations", 0.0), metrics["solver.search_s"]
    )
    metrics["solver.calls_per_verdict"] = _ratio(
        counters.get("solver.calls", 0.0), verdicts
    )
    cache: dict[str, int] = defaultdict(int)
    for stats in cache_stats:
        for key, value in stats.items():
            cache[key] += value
    for stage in ("compile", "mine", "encode"):
        hits = cache[f"{stage}_hits"]
        metrics[f"session.{stage}_hit_ratio"] = _ratio(
            hits, hits + cache[stage]
        )
    metrics["other_s"] = wall - tracer.top_level_seconds()
    return metrics
