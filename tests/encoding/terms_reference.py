"""The skeleton's shared-term prewarm, one Python gate at a time.

The encoder builds the skeleton's address comparisons and initial-value
terms in one native batch (:class:`repro.encoding.formula.SharedTermBatch`,
``terms.c``).  This is the loop it replaced: the same pair filters, with
every term built through the lazy :meth:`EncodingContext.addr_eq` and
:meth:`EncodingContext.initial_value_term` as soon as it is found.  The
byte-identity tests (``test_shared_terms.py``) hold the batch to it.
"""

from __future__ import annotations

from repro.encoding.testprogram import INIT_THREAD
from repro.sat.circuit import Circuit


def prewarm_shared_terms(context, table) -> None:
    """A drop-in for ``repro.encoding.formula._prewarm_shared_terms``."""
    core_reach = table.closure(table.core_successors)
    for first, second in table.same_thread_pairs:
        if first.thread == INIT_THREAD or not second.is_store:
            continue
        if (
            first.atomic_group is not None
            and first.atomic_group == second.atomic_group
        ):
            continue
        if not table.may_alias(first, second):
            continue
        first_addr, second_addr = context.bvb.match_widths(
            first.addr, second.addr
        )
        if first_addr == second_addr:
            table.const_edges.append((first, second))
        elif not (core_reach[first.index] >> second.index) & 1:
            addr_eq = context.addr_eq(first, second)
            if addr_eq != Circuit.FALSE:
                table.same_address_pairs.append((first, second, addr_eq))

    successors = list(table.core_successors)
    table.add_edges(successors, table.const_edges)
    reach = table.closure(successors)
    for load, stores in table.candidates:
        context.initial_value_term(load)
        load_reach = reach[load.index]
        for store in stores:
            if not (load_reach >> store.index) & 1:
                context.addr_eq(load, store)
