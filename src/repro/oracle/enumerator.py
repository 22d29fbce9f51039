"""Stage 2 of the operational oracle: exhaustive outcome enumeration.

This is an independent, *explicit-state* implementation of the memory-model
axioms of Section 2.3 — the same switches the SAT encoder
(:mod:`repro.encoding.memory`) turns into clauses, re-implemented as an
operational machine that never touches the SAT stack:

* the memory order ``<M`` is built incrementally: an execution is a
  sequence of *perform* steps, one per access, and the order in which
  accesses are performed *is* ``<M`` (a total order, exactly like the
  encoder's antisymmetric + transitive order variables);
* an access may perform only when every access that the model orders
  before it (preserved program order, the same-address store-order axiom,
  fences, atomic-block program order, "initialization happens first") has
  already performed;
* atomic blocks exclude other-thread accesses while partially performed,
  and under the Seriality model whole invocations do (the operation
  atomicity used to mine specifications);
* a performing load reads the *last* store to its address that already
  performed — unless store forwarding is on and a program-order-earlier
  store of its own thread is still pending in the store buffer, in which
  case it reads the newest such pending store (the ``<M``-maximal visible
  store of the paper's value axiom: pending stores perform later and are
  therefore ``<M``-greater than everything already performed);
* a store whose value expression mentions loads that have not yet
  performed (possible on Relaxed, where value dependencies are not
  ordered) *guesses* the value from the bounded domain; the guess is
  checked when the load finally performs, and mismatching branches are
  pruned.  This makes the enumerator complete for the encoder's
  out-of-thin-air executions (a load-buffering cycle with copied values)
  instead of silently missing them.

States reached by different interleavings but with the same performed set,
memory view and token bindings have the same futures, so they are memoised.
The memo key is three packed integers (performed-set bitmask, memory view,
bindings) built by flat loops over fixed per-run bit slots — canonical
without sorting.

The memo merges interleavings only after exploring them, so on top of it
each state performs a *stubborn set* of accesses (partial-order reduction,
as in Abe et al., "Reducing State Explosion for Software Model Checking
with Relaxed Memory Consistency Models") instead of every enabled one.
Two accesses *depend* when they touch one address and at least one of them
is a store; this covers store forwarding too, because a load's forwarding
candidates are same-address stores.  A stubborn set starts from one
enabled access and is closed under two rules: an enabled member adds every
pending access it depends on, and a disabled member adds one of its
unperformed predecessors, which must perform before it can
(initialization-first is folded into the predecessor masks).  The DFS
performs the enabled members of the smallest such set over all seeds.
Enabledness depends on the performed set alone, so the choice is cached
per performed-set mask.  The reduction is sound for this search because:

* only complete executions are reported, and every access performs in
  each of them, so the search must keep only the reachable complete
  states — which the two closure rules preserve;
* token guesses and path constraints commute: every binding in a complete
  execution equals its final value (a guess a load later contradicts is
  pruned), so independent accesses performed in either order reach the
  same (memory, bindings) state, and a constraint that prunes one order
  fails on that complete execution in the other as well;
* the state graph is acyclic, since the performed set only grows, so the
  memo needs no extra proviso.

Traces with atomic blocks, and models with operation atomicity (Seriality),
keep the full enabled set: opening a block or an invocation disables the
other threads, and the commutation argument needs accesses that never
disable each other.

Everything that exceeds a budget (trace steps, explored states, value
domains) or falls outside the supported fragment yields an
``INCONCLUSIVE`` :class:`OracleResult` rather than an exception or a wrong
verdict — the differential harness skips those programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from repro.core import limits
from repro.encoding.testprogram import INIT_THREAD, CompiledTest
from repro.lsl.values import is_undef
from repro.memorymodel.base import MemoryModel, get_model
from repro.oracle.trace import (
    AccessEvent,
    OracleUnsupported,
    ProgramTrace,
    Token,
    TraceExtractor,
    TraceLimitExceeded,
    Unresolved,
    eval_expr,
    expr_tokens,
)

#: Verdict statuses.
OK = "ok"
INCONCLUSIVE = "inconclusive"


class _BudgetExceeded(Exception):
    pass


@dataclass
class OracleResult:
    """Outcome of one exhaustive enumeration.

    ``outcomes`` is the set of observation vectors (same slot order as
    :meth:`repro.encoding.formula.EncodedTest.decode_observation`) reachable
    under the model.  ``final_memories`` (if requested) collects the final
    memory image of every execution: a tuple of ``(location, value)`` pairs
    where ``value`` is ``None`` for an untouched havoc'd cell.
    """

    status: str
    model: str
    outcomes: set[tuple[int, ...]] = field(default_factory=set)
    final_memories: set[tuple[tuple[int, int | None], ...]] | None = None
    #: Per-location value domain of untouched havoc'd cells (``None`` image
    #: entries): ``None`` means the full ``value_mask`` range.  Only
    #: populated when final memories are recorded.
    final_domains: dict[int, frozenset[int] | None] = field(
        default_factory=dict
    )
    value_mask: int = 0
    reason: str = ""
    traces: int = 0
    nodes: int = 0

    @property
    def ok(self) -> bool:
        return self.status == OK

    def allows(self, observation: tuple[int, ...]) -> bool:
        if not self.ok:
            raise RuntimeError(
                f"oracle was inconclusive ({self.reason}); no verdict"
            )
        return tuple(observation) in self.outcomes

    def allows_final_memory(self, wanted: dict[int, int]) -> bool:
        """Is there an execution whose final memory matches ``wanted``
        (a location -> value constraint on the interesting cells)?

        Default-initial-value semantics, pinned: a location a recorded
        execution never touched keeps its initial value — a concrete
        initial or zero policy is stored in the image directly; a havoc'd
        initial is stored as ``None`` and matches exactly the values of the
        location's havoc domain (every such value is realized by some
        execution).  Asking about a location that is not part of the image
        at all is a caller bug and raises ``KeyError`` instead of silently
        deciding either way.
        """
        if self.final_memories is None:
            raise RuntimeError("enumerated without record_final_memory=True")
        if not self.ok:
            raise RuntimeError(
                f"oracle was inconclusive ({self.reason}); no verdict"
            )
        for memory in self.final_memories:
            image = dict(memory)
            if all(
                self._final_value_matches(image, loc, value)
                for loc, value in wanted.items()
            ):
                return True
        return False

    def _final_value_matches(
        self, image: dict[int, int | None], location: int, value: int
    ) -> bool:
        if location not in image:
            raise KeyError(
                f"location {location} is not part of the final memory image"
            )
        current = image[location]
        if current is not None:
            return current == value
        # Untouched havoc'd cell: its final value is its unconstrained
        # initial value, free over the location's domain.
        domain = self.final_domains.get(location)
        if domain is None:
            return 0 <= value <= self.value_mask
        return value in domain


def enumerate_outcomes(
    compiled: CompiledTest,
    model: MemoryModel | str,
    max_steps: int = 100_000,
    max_nodes: int = 400_000,
    max_domain: int = 64,
    record_final_memory: bool = False,
) -> OracleResult:
    """Enumerate every outcome of ``compiled`` allowed by ``model``.

    Budgets: ``max_steps`` bounds trace extraction, ``max_nodes`` bounds
    explored enumeration states (distinct ones, as ``nodes`` counts them:
    a memo hit is not a new state), ``max_domain`` bounds the value domain
    used when a token must be guessed (``2^width`` must fit).  Breaching
    any of them returns an ``INCONCLUSIVE`` result.
    """
    model = get_model(model)
    result = OracleResult(
        status=OK,
        model=model.name,
        final_memories=set() if record_final_memory else None,
    )
    try:
        traces = TraceExtractor(compiled, max_steps=max_steps).traces()
    except (OracleUnsupported, TraceLimitExceeded) as exc:
        result.status = INCONCLUSIVE
        result.reason = str(exc)
        return result
    result.traces = len(traces)
    enumerator = _Enumerator(
        compiled, model, max_nodes=max_nodes, max_domain=max_domain,
        record_final_memory=record_final_memory,
    )
    result.value_mask = enumerator.mask
    for trace in traces:
        try:
            enumerator.run(trace, result)
        except (OracleUnsupported, TraceLimitExceeded) as exc:
            result.status = INCONCLUSIVE
            result.reason = str(exc)
            break
        except _BudgetExceeded:
            result.status = INCONCLUSIVE
            result.reason = f"exceeded {max_nodes} enumeration states"
            break
    result.nodes = enumerator.nodes
    return result


class _Enumerator:
    """Depth-first enumeration of the memory orders of one trace."""

    def __init__(
        self,
        compiled: CompiledTest,
        model: MemoryModel,
        max_nodes: int,
        max_domain: int,
        record_final_memory: bool,
    ) -> None:
        self.compiled = compiled
        self.model = model
        self.max_nodes = max_nodes
        self.max_domain = max_domain
        self.record_final_memory = record_final_memory
        self.nodes = 0  # distinct states explored (the max_nodes budget)
        self.visits = 0  # DFS calls, memo hits included
        width = max(compiled.ranges.width(), 1)
        self.mask = (1 << width) - 1
        if (1 << width) > max_domain:
            # Guessed tokens range over the full bit-vector domain; refuse
            # rather than explode (or silently under-approximate).
            self.domain_size = None
        else:
            self.domain_size = 1 << width

    # -------------------------------------------------------------- per trace

    def run(self, trace: ProgramTrace, result: OracleResult) -> None:
        self.trace = trace
        self.events = trace.events
        self.n = len(self.events)
        self._prepare_structure(trace)
        self._init_tokens: dict[int, Token] = {}
        self._visited: set = set()
        #: performed-set mask -> the accesses its states perform.
        self._choices: dict[int, list[AccessEvent]] = {}
        self._result = result
        # Memo-key packing state: every location/token gets a bit slot of
        # ``stride`` bits on first sight (first-seen order is deterministic
        # within a run, which is all canonicality needs); a slot holds
        # ``value + 1`` so absence (0) differs from a bound/stored 0.
        self._stride = self.mask.bit_length() + 1
        self._loc_shift: dict[int, int] = {}
        self._token_shift: dict[Token, int] = {}
        self._dfs(0, {}, {})

    def _prepare_structure(self, trace: ProgramTrace) -> None:
        model = self.model
        by_thread: dict[int, list[AccessEvent]] = {}
        for event in self.events:
            by_thread.setdefault(event.thread, []).append(event)
        for members in by_thread.values():
            members.sort(key=lambda e: e.seq)
        self.by_thread = by_thread

        preds: list[int] = [0] * self.n  # predecessor bitmasks
        for members in by_thread.values():
            for i, first in enumerate(members):
                for second in members[i + 1:]:
                    ordered = (
                        first.thread == INIT_THREAD
                        or model.preserves(first.kind, second.kind)
                        or (
                            model.same_address_store_order
                            and second.is_store
                            and first.addr == second.addr
                        )
                        or (
                            first.atomic_group is not None
                            and first.atomic_group == second.atomic_group
                        )
                    )
                    if ordered:
                        preds[second.eid] |= 1 << first.eid
        for fence in trace.fences:
            members = by_thread.get(fence.thread, [])
            before = [
                e for e in members
                if e.seq < fence.seq and e.kind in fence.kind.orders_before
            ]
            after = [
                e for e in members
                if e.seq > fence.seq and e.kind in fence.kind.orders_after
            ]
            for second in after:
                for first in before:
                    preds[second.eid] |= 1 << first.eid
        # Initialization happens first: every initialization access is a
        # predecessor of every other access.
        init_mask = 0
        for event in self.events:
            if event.thread == INIT_THREAD:
                init_mask |= 1 << event.eid
        for event in self.events:
            if event.thread != INIT_THREAD:
                preds[event.eid] |= init_mask
        self.preds = preds

        #: per-access mask of the accesses it depends on: same address, at
        #: least one of the two a store.
        stores_at: dict[int, int] = {}
        accesses_at: dict[int, int] = {}
        for event in self.events:
            bit = 1 << event.eid
            accesses_at[event.addr] = accesses_at.get(event.addr, 0) | bit
            if event.is_store:
                stores_at[event.addr] = stores_at.get(event.addr, 0) | bit
        self.dependents = [
            (accesses_at if event.is_store else stores_at).get(event.addr, 0)
            & ~(1 << event.eid)
            for event in self.events
        ]

        #: invocation / atomic-group member masks for the dynamic rules.
        self.invocation_masks: dict[int, int] = {}
        self.group_masks: dict[int, tuple[int, int]] = {}  # gid -> (mask, thread)
        for event in self.events:
            self.invocation_masks[event.invocation] = (
                self.invocation_masks.get(event.invocation, 0) | 1 << event.eid
            )
            if event.atomic_group is not None:
                mask, _ = self.group_masks.get(
                    event.atomic_group, (0, event.thread)
                )
                self.group_masks[event.atomic_group] = (
                    mask | 1 << event.eid, event.thread
                )
        #: Opening an atomic block or a Seriality invocation disables the
        #: other threads, so only traces with neither are reduced.
        self.reduce = not (self.group_masks or model.operation_atomicity)

        #: per-load forwarding candidates (program-order-earlier same-thread
        #: same-address stores), newest first.
        self.forward_candidates: dict[int, list[AccessEvent]] = {}
        if model.store_forwarding:
            for members in by_thread.values():
                for event in members:
                    if not event.is_load:
                        continue
                    candidates = [
                        s for s in members
                        if s.is_store and s.seq < event.seq
                        and s.addr == event.addr
                    ]
                    if candidates:
                        if not model.same_address_store_order and len(candidates) > 1:
                            raise OracleUnsupported(
                                "store forwarding without the same-address "
                                "store-order axiom is ambiguous; not supported"
                            )
                        candidates.sort(key=lambda s: s.seq, reverse=True)
                        self.forward_candidates[event.eid] = candidates

    # ------------------------------------------------------------------- DFS

    def _dfs(self, mask: int, memory: dict[int, int], bindings: dict) -> None:
        self.visits += 1
        if self.visits & 1023 == 0:
            limits.check_deadline()
        stride = self._stride
        max_value = self.mask
        packable = True
        mem_key = 0
        loc_shift = self._loc_shift
        for loc, value in memory.items():
            if not 0 <= value <= max_value:
                packable = False
                break
            shift = loc_shift.get(loc)
            if shift is None:
                shift = len(loc_shift) * stride
                loc_shift[loc] = shift
            mem_key |= (value + 1) << shift
        bind_key = 0
        if packable:
            token_shift = self._token_shift
            for token, value in bindings.items():
                if not 0 <= value <= max_value:
                    packable = False
                    break
                shift = token_shift.get(token)
                if shift is None:
                    shift = len(token_shift) * stride
                    token_shift[token] = shift
                bind_key |= (value + 1) << shift
        if packable:
            key = (mask, mem_key, bind_key)
        else:
            # Out-of-range value (defensive; eval_expr masks everything):
            # fall back to the canonical-by-sorting tuple key.
            key = (
                mask,
                tuple(sorted(memory.items())),
                tuple(sorted((t.index, v) for t, v in bindings.items())),
            )
        if key in self._visited:
            return
        self._visited.add(key)
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise _BudgetExceeded()
        if mask == (1 << self.n) - 1:
            self._complete(memory, bindings)
            return
        choice = self._choices.get(mask)
        if choice is None:
            choice = self._choices[mask] = self._choose(mask)
        for event in choice:
            self._perform(event, mask | 1 << event.eid, memory, bindings)

    def _choose(self, mask: int) -> list[AccessEvent]:
        """The accesses a state with performed set ``mask`` performs: the
        enabled members of the smallest stubborn set, or every enabled
        access when the trace is not reduced."""
        enabled = self._enabled(mask)
        if not self.reduce or len(enabled) < 2:
            return enabled
        enabled_mask = 0
        for event in enabled:
            enabled_mask |= 1 << event.eid
        best, best_size = enabled_mask, len(enabled)
        for seed in enabled:
            members = self._stubborn_set(seed.eid, mask) & enabled_mask
            size = members.bit_count()
            if size < best_size:
                best, best_size = members, size
                if size == 1:
                    break
        return [event for event in enabled if best >> event.eid & 1]

    def _enabled(self, mask: int) -> list[AccessEvent]:
        """Every access enabled at performed set ``mask``."""
        open_groups = [
            thread for gmask, thread in self.group_masks.values()
            if gmask & mask and gmask & ~mask
        ]
        open_invocation = None
        if self.model.operation_atomicity:
            for invocation, imask in self.invocation_masks.items():
                if imask & mask and imask & ~mask:
                    open_invocation = invocation
                    break
        enabled = []
        for event in self.events:
            if mask >> event.eid & 1 or self.preds[event.eid] & ~mask:
                continue
            if open_invocation is not None and event.invocation != open_invocation:
                continue
            if open_groups and any(t != event.thread for t in open_groups):
                continue
            enabled.append(event)
        return enabled

    def _stubborn_set(self, seed: int, mask: int) -> int:
        """Close ``{seed}`` (an enabled access) into a stubborn set at
        performed set ``mask``; returns its member mask."""
        pending = ~mask
        chosen = 1 << seed
        work = [seed]
        while work:
            eid = work.pop()
            blockers = self.preds[eid] & pending
            if blockers:
                # Disabled: it cannot perform until all of its blockers
                # have, so one blocker in the set is enough.
                if blockers & chosen:
                    continue
                added = blockers & -blockers
            else:
                added = self.dependents[eid] & pending & ~chosen
            chosen |= added
            while added:
                low = added & -added
                work.append(low.bit_length() - 1)
                added ^= low
        return chosen

    def _perform(self, event: AccessEvent, new_mask: int,
                 memory: dict[int, int], bindings: dict) -> None:
        if event.is_store:
            for new_bindings, value in self._resolve(event.value, bindings):
                if not self._constraints_hold(new_bindings):
                    continue
                self._dfs(new_mask, {**memory, event.addr: value}, new_bindings)
            return

        # A load: find the <M-maximal visible store (paper's value axiom).
        pending = [
            s for s in self.forward_candidates.get(event.eid, ())
            if not new_mask & (1 << s.eid)
        ]
        if pending:
            # Store-queue forwarding: the newest pending program-order-
            # earlier store is visible and performs later than everything
            # already performed, so it is the <M-maximal visible store.
            variants = self._resolve(pending[0].value, bindings)
        elif event.addr in memory:
            variants = [(bindings, memory[event.addr])]
        else:
            variants = self._initial_values(event.addr, bindings)
        token = event.value
        for new_bindings, value in variants:
            bound = new_bindings.get(token)
            if bound is not None:
                if bound != value:
                    continue  # a guessed value turned out wrong: prune
            else:
                new_bindings = {**new_bindings, token: value}
            if not self._constraints_hold(new_bindings):
                continue
            self._dfs(new_mask, memory, new_bindings)

    # -------------------------------------------------------------- plumbing

    def _havoc_domain(self, location: int) -> frozenset[int] | None:
        """The value domain of a havoc'd location's initial value, or
        ``None`` for the full machine-word range."""
        domain = self.compiled.ranges.location_domain(location)
        if domain is not None:
            valid = frozenset(v for v in domain if v <= self.mask)
            domain = valid or None
        return domain

    def _domain(self, token: Token) -> range | list[int]:
        if token.domain is not None:
            return sorted(token.domain)
        if self.domain_size is None:
            raise OracleUnsupported(
                f"guessing {token!r} needs a domain of 2^width > "
                f"{self.max_domain} values"
            )
        return range(self.domain_size)

    def _resolve(self, expr, bindings: dict):
        """All ``(bindings, value)`` completions of an expression, guessing
        unbound tokens over the bounded domain."""
        try:
            return [(bindings, eval_expr(expr, bindings, self.mask))]
        except Unresolved as exc:
            token = exc.token
        out = []
        for guess in self._domain(token):
            out.extend(self._resolve(expr, {**bindings, token: guess}))
        return out

    def _initial_values(self, location: int, bindings: dict):
        """The initial value of a location, mirroring
        :meth:`repro.encoding.formula.EncodingContext.initial_value`."""
        info = self.compiled.layout.info(location)
        if not is_undef(info.initial):
            return [(bindings, int(info.initial) & self.mask)]
        policy = self.trace.policies.get(location, "havoc")
        if policy == "zero":
            return [(bindings, 0)]
        token = self._init_tokens.get(location)
        if token is None:
            token = Token(
                -location, "init", name=f"init_loc{location}",
                domain=self._havoc_domain(location),
            )
            self._init_tokens[location] = token
        if token in bindings:
            return [(bindings, bindings[token])]
        return [
            ({**bindings, token: value}, value)
            for value in self._domain(token)
        ]

    def _constraints_hold(self, bindings: dict) -> bool:
        """Check every path constraint that is now evaluable."""
        for constraint in self.trace.constraints:
            try:
                if not eval_expr(constraint, bindings, self.mask):
                    return False
            except Unresolved:
                continue
        return True

    # ------------------------------------------------------------ completion

    def _complete(self, memory: dict[int, int], bindings: dict) -> None:
        # Any tokens still unbound (free values never forced by a load, or
        # havoc'd initials only visible through observations) range over
        # their full domains — same as the encoder's unconstrained fresh
        # bit-vectors.
        unbound: list[Token] = []
        seen: set[Token] = set()
        for expr in list(self.trace.observations) + list(self.trace.constraints):
            for token in expr_tokens(expr):
                if token not in bindings and token not in seen:
                    seen.add(token)
                    unbound.append(token)
        domains = [list(self._domain(token)) for token in unbound]
        for values in product(*domains) if domains else [()]:
            full = {**bindings, **dict(zip(unbound, values))}
            if not self._constraints_hold(full):
                continue
            outcome = tuple(
                eval_expr(expr, full, self.mask)
                for expr in self.trace.observations
            )
            self._result.outcomes.add(outcome)
            if self._result.final_memories is not None:
                self._result.final_memories.add(
                    self._final_memory(memory, full)
                )

    def _final_memory(self, memory: dict[int, int],
                      bindings: dict) -> tuple[tuple[int, int | None], ...]:
        image = []
        layout = self.compiled.layout
        for location in layout.valid_indices():
            if location in memory:
                image.append((location, memory[location]))
                continue
            info = layout.info(location)
            if not is_undef(info.initial):
                image.append((location, int(info.initial) & self.mask))
                continue
            if self.trace.policies.get(location, "havoc") == "zero":
                image.append((location, 0))
                continue
            token = self._init_tokens.get(location)
            value = bindings.get(token) if token is not None else None
            if value is None:
                # Record what the unconstrained initial may range over, so
                # allows_final_memory can match None entries exactly.
                self._result.final_domains[location] = (
                    self._havoc_domain(location)
                )
            image.append((location, value))
        return tuple(image)
