"""Counterexample traces.

When the inclusion check finds an execution whose observation is not in the
specification (or an execution violating an assertion), the model returned by
the SAT solver is decoded into a human-readable trace: the argument/return
values observed, and the executed memory accesses listed in memory order
with their addresses and values.

Under the pruned order encoding the SAT model only fixes the order of the
pairs that matter (statically resolved pairs are constants, order-irrelevant
pairs carry no variable at all), so
:meth:`~repro.encoding.formula.EncodedTest.decode_memory_order` returns a
deterministic linear extension of that partial order; ``TraceStep.position``
numbers the accesses along that extension.  Every ordered fact the solver
committed to is preserved, and the positions of mutually unordered accesses
are an arbitrary-but-deterministic tie-break.  Each load also names the
store it read (``TraceStep.source``), straight from the model's reads-from
selectors (:meth:`~repro.encoding.formula.EncodedTest.decode_sources`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.encoding.formula import EncodedTest


@dataclass
class TraceStep:
    """One executed memory access, in memory order."""

    position: int
    thread: int
    invocation_label: str
    kind: str
    location: str
    address: int
    value: int
    label: str
    #: For a load, the position of the store it read, or ``None`` when it
    #: read the initial value; always ``None`` for a store.
    source: int | None = None

    def format(self) -> str:
        action = "ld" if self.kind == "load" else "st"
        line = (
            f"#{self.position:<3} {self.invocation_label:<22} "
            f"{action} {self.location:<24} value={self.value}"
        )
        if self.kind != "load":
            return line
        origin = "init" if self.source is None else f"#{self.source}"
        return f"{line:<70} <- {origin}"


@dataclass
class CounterexampleTrace:
    """A complete counterexample: observation plus the interleaving."""

    kind: str                       # "observation" or "assertion"
    observation: tuple[int, ...]
    observation_text: str
    steps: list[TraceStep] = field(default_factory=list)
    violated_assertions: list[str] = field(default_factory=list)
    memory_model: str = ""
    test_name: str = ""
    implementation: str = ""

    def format(self) -> str:
        lines = [
            f"counterexample ({self.kind}) for {self.implementation} "
            f"on test {self.test_name} under {self.memory_model}",
            f"  observation: {self.observation_text}",
        ]
        if self.violated_assertions:
            lines.append("  violated assertions:")
            lines.extend(f"    {text}" for text in self.violated_assertions)
        lines.append("  memory order of executed accesses:")
        lines.extend("    " + step.format() for step in self.steps)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.format()


def build_trace(
    encoded: EncodedTest,
    kind: str,
    observation_labels: list[str],
) -> CounterexampleTrace:
    """Decode the most recent SAT model of ``encoded`` into a trace."""
    model = encoded.model_values()
    observation = encoded.decode_observation(model)
    observation_text = ", ".join(
        f"{label}={value}" for label, value in zip(observation_labels, observation)
    )
    invocation_labels = {
        invocation.global_index: invocation.label
        for invocation in encoded.ctx.compiled.invocations
    }
    layout = encoded.ctx.layout
    executed = encoded.decode_memory_order(model)
    dense = {a.index: p for p, a in enumerate(encoded.order.accesses)}
    trace_position = {
        dense[access.index]: position
        for position, access in enumerate(executed)
    }
    sources = encoded.decode_sources(model)
    steps: list[TraceStep] = []
    for position, access in enumerate(executed):
        decoded = encoded.decode_access(access, model)
        source = None
        if access.is_load:
            source = sources[dense[access.index]]
            if source is not None:
                source = trace_position[source]
        steps.append(
            TraceStep(
                position=position,
                thread=access.thread,
                invocation_label=invocation_labels.get(
                    access.invocation, f"inv{access.invocation}"
                ),
                kind=access.kind,
                location=layout.name_of(decoded["address"]),
                address=decoded["address"],
                value=decoded["value"],
                label=access.label,
                source=source,
            )
        )
    return CounterexampleTrace(
        kind=kind,
        observation=observation,
        observation_text=observation_text,
        steps=steps,
        violated_assertions=encoded.violated_assertions(model),
        memory_model=encoded.model.name,
        test_name=encoded.ctx.compiled.test.name,
        implementation=encoded.ctx.compiled.implementation.name,
    )
