"""Axiomatic memory models (Section 2.3 of the paper).

A memory model is described by a small set of switches that the encoder
(:mod:`repro.encoding.memory`) turns into constraints over the memory order
``<M``:

* ``preserved_program_order`` — which program-order edges (classified by the
  kinds of the two accesses) are enforced unconditionally in ``<M``.
  Sequential consistency preserves all of them; Relaxed preserves none.
* ``same_address_store_order`` — the Relaxed axiom 1: accesses to the same
  address where the later one is a store stay ordered.
* ``store_forwarding`` — whether a load may read a program-order-earlier
  store of its own thread even if that store is globally ordered after the
  load (store buffer forwarding).
* ``operation_atomicity`` — the *Seriality* condition of Section 2.3.2:
  operations of the test appear atomically and in a total order.  This is
  how the specification (observation set) is mined.

Besides the three models used in the paper (Seriality, SC, Relaxed) we
provide TSO and PSO configurations, which are useful to show where fences
become unnecessary on stronger architectures (Section 4.2 observes that the
studied algorithms need no fences on TSO-like machines).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class MemoryModel:
    """A hardware-level memory model in axiomatic form."""

    name: str
    description: str
    #: Pairs of access kinds ("load"/"store") whose program order is
    #: preserved in the memory order.
    preserved_program_order: frozenset[tuple[str, str]]
    #: Enforce x <M y when x <p y, a(x) = a(y) and y is a store (axiom 1 of
    #: the Relaxed model).
    same_address_store_order: bool
    #: Loads may read own-thread earlier stores that are not yet globally
    #: performed (store-queue forwarding).
    store_forwarding: bool
    #: Operations execute atomically in some total order (Seriality).
    operation_atomicity: bool = False

    def preserves(self, first_kind: str, second_kind: str) -> bool:
        return (first_kind, second_kind) in self.preserved_program_order

    def __str__(self) -> str:
        return self.name


_ALL_PAIRS = frozenset(
    (a, b) for a in ("load", "store") for b in ("load", "store")
)

#: Seriality: sequential consistency plus atomic operations (Section 2.3.2).
SERIAL = MemoryModel(
    name="serial",
    description="Atomic, interleaved operations (used to mine the spec)",
    preserved_program_order=_ALL_PAIRS,
    same_address_store_order=True,
    store_forwarding=False,
    operation_atomicity=True,
)

#: Classic sequential consistency [Lamport 1979].
SEQUENTIAL_CONSISTENCY = MemoryModel(
    name="sc",
    description="Sequential consistency (total order consistent with program order)",
    preserved_program_order=_ALL_PAIRS,
    same_address_store_order=True,
    store_forwarding=False,
)

#: Total store order (SPARC TSO / x86-like): store->load may be reordered,
#: stores are buffered and forwarded.
TSO = MemoryModel(
    name="tso",
    description="Total store order (store->load reordering, store forwarding)",
    preserved_program_order=frozenset(
        {("load", "load"), ("load", "store"), ("store", "store")}
    ),
    same_address_store_order=True,
    store_forwarding=True,
)

#: Partial store order (SPARC PSO): additionally relaxes store->store.
PSO = MemoryModel(
    name="pso",
    description="Partial store order (also relaxes store->store)",
    preserved_program_order=frozenset({("load", "load"), ("load", "store")}),
    same_address_store_order=True,
    store_forwarding=True,
)

#: The paper's Relaxed model: a common conservative approximation of
#: SPARC RMO, Alpha, and IBM 370/390/z (Section 2.3).
RELAXED = MemoryModel(
    name="relaxed",
    description="The paper's Relaxed model (reordering, store buffering, "
    "forwarding, value-dependence relaxed)",
    preserved_program_order=frozenset(),
    same_address_store_order=True,
    store_forwarding=True,
)

_REGISTRY: dict[str, MemoryModel] = {
    model.name: model
    for model in (SERIAL, SEQUENTIAL_CONSISTENCY, TSO, PSO, RELAXED)
}
_REGISTRY["sequential-consistency"] = SEQUENTIAL_CONSISTENCY


def get_model(name: str | MemoryModel) -> MemoryModel:
    """Look up a memory model by name (case-insensitive)."""
    if isinstance(name, MemoryModel):
        return name
    try:
        return _REGISTRY[name.lower()]
    except KeyError as exc:
        known = ", ".join(sorted(set(_REGISTRY)))
        raise KeyError(f"unknown memory model {name!r} (known: {known})") from exc


def available_models() -> list[MemoryModel]:
    return [SERIAL, SEQUENTIAL_CONSISTENCY, TSO, PSO, RELAXED]


def is_stronger(stronger: MemoryModel, weaker: MemoryModel) -> bool:
    """Syntactic check that ``stronger`` allows a subset of executions.

    A model is stronger if it preserves at least the program order edges of
    the other, does not add forwarding, and keeps the same-address rule.
    (This matches the ordering Seriality > SC > TSO > PSO > Relaxed used in
    Section 2.3.3.)
    """
    return (
        weaker.preserved_program_order <= stronger.preserved_program_order
        and (stronger.store_forwarding <= weaker.store_forwarding)
        and (weaker.operation_atomicity <= stronger.operation_atomicity)
        and (weaker.same_address_store_order <= stronger.same_address_store_order)
    )
