"""``snark`` — a DCAS-based non-blocking deque (Table 1).

The original "snark" algorithm [Detlefs et al. 2000] implements a deque as a
doubly-linked list manipulated with double-compare-and-swap (DCAS); two bugs
were later found in it [Doherty et al. 2004].  The full snark algorithm is
long; this reproduction implements a compact DCAS deque with the same
structure (doubly-linked list between two sentinels, all updates performed
with DCAS on a pair of links) and ships a ``buggy`` variant whose pop
operations update only one of the two links with a single CAS.  The buggy
variant exhibits the snark failure mode on the paper's test D0: when the
deque holds a single element, concurrent pops from both ends can both return
that element — an observation no serial execution produces.  The
"Substitutions" section of docs/paper-map.md records this substitution.

``EMPTY`` (2) is returned by pops on an empty deque.  Retries are modeled
with ``assume(false)`` (the paper's primed-operation restriction).
"""

from __future__ import annotations

from repro.datatypes.reference import ReferenceDeque
from repro.datatypes.spec import DataTypeImplementation, OperationSpec

_HEADER = """
typedef struct node {
    struct node *left;
    struct node *right;
    int value;
} node_t;

typedef struct deque {
    node_t *left_sentinel;
    node_t *right_sentinel;
} deque_t;

deque_t dq;

extern node_t *new_node();
extern void delete_node(node_t *node);

void init_deque(deque_t *d)
{
    node_t *ls;
    node_t *rs;
    ls = new_node();
    rs = new_node();
    ls->left = 0;
    ls->right = rs;
    ls->value = 0;
    rs->left = ls;
    rs->right = 0;
    rs->value = 0;
    d->left_sentinel = ls;
    d->right_sentinel = rs;
}
"""


def _body(fenced: bool, correct_pops: bool) -> str:
    load_fence = 'fence("load-load");' if fenced else ""
    store_fence = 'fence("store-store");' if fenced else ""
    if correct_pops:
        pop_right_commit = """
    if (dcas(&rs->left, (unsigned) node, (unsigned) prev,
             &prev->right, (unsigned) node, (unsigned) rs)) {
        delete_node(node);
        return result;
    }
    assume(false);
    return 2;
"""
        pop_left_commit = """
    if (dcas(&ls->right, (unsigned) node, (unsigned) nxt,
             &nxt->left, (unsigned) node, (unsigned) ls)) {
        delete_node(node);
        return result;
    }
    assume(false);
    return 2;
"""
    else:
        # The buggy variant only swings the hat on its own side, so both ends
        # can claim the same last node (the snark double-pop bug).
        pop_right_commit = """
    if (cas(&rs->left, (unsigned) node, (unsigned) prev)) {
        prev->right = rs;
        delete_node(node);
        return result;
    }
    assume(false);
    return 2;
"""
        pop_left_commit = """
    if (cas(&ls->right, (unsigned) node, (unsigned) nxt)) {
        nxt->left = ls;
        delete_node(node);
        return result;
    }
    assume(false);
    return 2;
"""
    return f"""
void add_right(deque_t *d, int v)
{{
    node_t *rs;
    node_t *prev;
    node_t *n;
    rs = d->right_sentinel;
    {load_fence}
    prev = rs->left;
    {load_fence}
    n = new_node();
    n->value = v;
    n->right = rs;
    n->left = prev;
    {store_fence}
    if (dcas(&prev->right, (unsigned) rs, (unsigned) n,
             &rs->left, (unsigned) prev, (unsigned) n)) {{
        return;
    }}
    assume(false);
}}

void add_left(deque_t *d, int v)
{{
    node_t *ls;
    node_t *nxt;
    node_t *n;
    ls = d->left_sentinel;
    {load_fence}
    nxt = ls->right;
    {load_fence}
    n = new_node();
    n->value = v;
    n->left = ls;
    n->right = nxt;
    {store_fence}
    if (dcas(&nxt->left, (unsigned) ls, (unsigned) n,
             &ls->right, (unsigned) nxt, (unsigned) n)) {{
        return;
    }}
    assume(false);
}}

int remove_right(deque_t *d)
{{
    node_t *rs;
    node_t *ls;
    node_t *node;
    node_t *prev;
    int result;
    rs = d->right_sentinel;
    ls = d->left_sentinel;
    {load_fence}
    node = rs->left;
    {load_fence}
    if (node == ls) {{
        return 2;
    }}
    result = node->value;
    {load_fence}
    prev = node->left;
    {load_fence}
{pop_right_commit}
}}

int remove_left(deque_t *d)
{{
    node_t *rs;
    node_t *ls;
    node_t *node;
    node_t *nxt;
    int result;
    rs = d->right_sentinel;
    ls = d->left_sentinel;
    {load_fence}
    node = ls->right;
    {load_fence}
    if (node == rs) {{
        return 2;
    }}
    result = node->value;
    {load_fence}
    nxt = node->right;
    {load_fence}
{pop_left_commit}
}}
"""


FENCED_SOURCE = _HEADER + _body(fenced=True, correct_pops=True)
UNFENCED_SOURCE = _HEADER + _body(fenced=False, correct_pops=True)
BUGGY_SOURCE = _HEADER + _body(fenced=True, correct_pops=False)

_OPERATIONS = {
    "init": OperationSpec("init", "init_deque", shared_globals=("dq",)),
    "add_left": OperationSpec(
        "add_left", "add_left", shared_globals=("dq",), num_value_args=1
    ),
    "add_right": OperationSpec(
        "add_right", "add_right", shared_globals=("dq",), num_value_args=1
    ),
    "remove_left": OperationSpec(
        "remove_left", "remove_left", shared_globals=("dq",), has_return=True
    ),
    "remove_right": OperationSpec(
        "remove_right", "remove_right", shared_globals=("dq",), has_return=True
    ),
}


def make(variant: str = "fenced") -> DataTypeImplementation:
    """The DCAS deque: ``fenced``, ``unfenced``, or ``buggy``."""
    sources = {
        "fenced": ("snark", FENCED_SOURCE),
        "unfenced": ("snark-unfenced", UNFENCED_SOURCE),
        "buggy": ("snark-buggy", BUGGY_SOURCE),
    }
    try:
        name, source = sources[variant]
    except KeyError as exc:
        raise ValueError(f"unknown snark variant {variant!r}") from exc
    return DataTypeImplementation(
        name=name,
        description="Non-blocking deque using double-compare-and-swap "
        "(snark-style, simplified)",
        operations=dict(_OPERATIONS),
        source=source,
        init_operation="init",
        reference=ReferenceDeque,
        default_loop_bound=1,
        notes="the 'buggy' variant reproduces the snark double-pop failure "
        "mode with a single-CAS pop",
    )
