"""``harris`` — a non-blocking (lock-free) list-based set (Table 1).

Harris's algorithm [Harris 2001] keeps a sorted linked list and deletes in
two steps: a node is first *logically* deleted by atomically setting a mark,
then *physically* unlinked with a compare-and-swap.  The published algorithm
packs the mark bit into the ``next`` pointer so that a single-word CAS
covers both; the paper notes that CheckFence supports such packed structures
by treating them as atomically accessed units.  We model the packed word as
two fields (``next``, ``marked``) updated inside an ``atomic`` block, which
has the same semantics as the single-word CAS (see "Substitutions" in
docs/paper-map.md).

Traversals do not help/physically remove marked nodes (the bounded tests the
paper uses never need more than one unlink); remove performs the physical
unlink itself.  Retries are modeled with ``assume(false)`` as for lazylist.
"""

from __future__ import annotations

from repro.datatypes.reference import ReferenceSet
from repro.datatypes.spec import DataTypeImplementation, OperationSpec

_HEADER = """
typedef struct node {
    int key;
    struct node *next;
    int marked;
} node_t;

typedef struct set {
    node_t *head;
} set_t;

set_t hset;

extern node_t *new_node();

void init_set(set_t *s)
{
    node_t *h;
    node_t *t;
    t = new_node();
    t->key = 3;
    t->next = 0;
    t->marked = 0;
    h = new_node();
    h->key = 0;
    h->next = t;
    h->marked = 0;
    s->head = h;
}
"""


def _body(fenced: bool) -> str:
    load_fence = 'fence("load-load");' if fenced else ""
    store_fence = 'fence("store-store");' if fenced else ""
    return f"""
bool add(set_t *s, int v)
{{
    int k;
    node_t *pred;
    node_t *curr;
    node_t *n;
    k = v + 1;
    pred = s->head;
    {load_fence}
    curr = pred->next;
    {load_fence}
    while (curr->key < k) {{
        pred = curr;
        curr = curr->next;
        {load_fence}
    }}
    if (curr->key == k) {{
        if (curr->marked == 0) {{
            return false;
        }}
    }}
    n = new_node();
    n->key = k;
    n->marked = 0;
    n->next = curr;
    {store_fence}
    if (cas(&pred->next, (unsigned) curr, (unsigned) n)) {{
        return true;
    }}
    assume(false);
    return false;
}}

bool remove_key(set_t *s, int v)
{{
    int k;
    node_t *pred;
    node_t *curr;
    node_t *succ;
    int ok;
    k = v + 1;
    pred = s->head;
    {load_fence}
    curr = pred->next;
    {load_fence}
    while (curr->key < k) {{
        pred = curr;
        curr = curr->next;
        {load_fence}
    }}
    if (curr->key != k) {{
        return false;
    }}
    succ = curr->next;
    {load_fence}
    ok = 0;
    atomic {{
        if (curr->next == succ) {{
            if (curr->marked == 0) {{
                curr->marked = 1;
                ok = 1;
            }}
        }}
    }}
    if (ok == 0) {{
        return false;
    }}
    {store_fence}
    cas(&pred->next, (unsigned) curr, (unsigned) succ);
    return true;
}}

bool contains(set_t *s, int v)
{{
    int k;
    node_t *curr;
    k = v + 1;
    curr = s->head;
    {load_fence}
    while (curr->key < k) {{
        curr = curr->next;
        {load_fence}
    }}
    return curr->key == k && curr->marked == 0;
}}
"""


FENCED_SOURCE = _HEADER + _body(fenced=True)
UNFENCED_SOURCE = _HEADER + _body(fenced=False)

_OPERATIONS = {
    "init": OperationSpec("init", "init_set", shared_globals=("hset",)),
    "add": OperationSpec(
        "add", "add", shared_globals=("hset",), num_value_args=1, has_return=True
    ),
    "remove": OperationSpec(
        "remove", "remove_key", shared_globals=("hset",), num_value_args=1,
        has_return=True,
    ),
    "contains": OperationSpec(
        "contains", "contains", shared_globals=("hset",), num_value_args=1,
        has_return=True,
    ),
}


def make(fenced: bool = True) -> DataTypeImplementation:
    """The lock-free set, with or without fences."""
    return DataTypeImplementation(
        name="harris" if fenced else "harris-unfenced",
        description="Non-blocking sorted-list set [Harris 2001], CAS-based with "
        "logical deletion marks",
        source=FENCED_SOURCE if fenced else UNFENCED_SOURCE,
        operations=dict(_OPERATIONS),
        init_operation="init",
        reference=ReferenceSet,
        default_loop_bound=3,
        notes="mark bit modeled as a separate field updated atomically with "
        "the pointer (packed-word emulation)",
    )
