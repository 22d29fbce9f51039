"""The symbolic test catalog of Fig. 8.

Tests are written in the paper's compact notation: one string of operation
letters per thread, with an optional initialization sequence executed before
the threads start.  Letters: ``e``/``d`` (enqueue/dequeue), ``a``/``c``/``r``
(add/contains/remove), and ``al``/``ar``/``rl``/``rr`` (add/remove left/
right).  Primed operations in the paper restrict retry loops to a single
iteration; in this reproduction every retry loop is bounded (Section 3.3),
so primes do not change the test and are accepted and ignored.

Every test starts with the implementation's ``init`` operation so the shared
object is set up before the init sequence and the threads run.
"""

from __future__ import annotations

from repro.lsl.program import Invocation, SymbolicTest

#: Token -> operation name, per data type category.
_TOKENS = {
    "queue": {"e": "enqueue", "d": "dequeue"},
    "set": {"a": "add", "c": "contains", "r": "remove"},
    "deque": {
        "al": "add_left",
        "ar": "add_right",
        "rl": "remove_left",
        "rr": "remove_right",
    },
}

#: Operations that take one (nondeterministic) value argument.
_HAS_ARGUMENT = {"enqueue", "add", "contains", "remove", "add_left", "add_right"}

# ---------------------------------------------------------------------------
# The catalog (Fig. 8).  Each entry: name -> (init tokens, [thread tokens]).
# ---------------------------------------------------------------------------

QUEUE_TESTS: dict[str, tuple[str, list[str]]] = {
    "T0": ("", ["e", "d"]),
    "T1": ("", ["e", "e", "d", "d"]),
    "Tpc2": ("", ["ee", "dd"]),
    "Tpc3": ("", ["eee", "ddd"]),
    "Tpc4": ("", ["eeee", "dddd"]),
    "Tpc5": ("", ["eeeee", "ddddd"]),
    "Tpc6": ("", ["eeeeee", "dddddd"]),
    "Ti2": ("e", ["ed", "de"]),
    "Ti3": ("e", ["de", "dde"]),
    "T53": ("", ["eeee", "d", "d"]),
    "T54": ("", ["eee", "e", "d", "d"]),
    "T55": ("", ["ee", "e", "e", "d", "d"]),
    "T56": ("", ["e", "e", "e", "e", "d", "d"]),
}

SET_TESTS: dict[str, tuple[str, list[str]]] = {
    "Sac": ("", ["a", "c"]),
    "Sar": ("", ["a", "r"]),
    "Saa": ("", ["a", "a"]),
    "Sacr": ("", ["a", "c", "r"]),
    "Saacr": ("a", ["a", "c", "r"]),
    "Sacr2": ("aar", ["a", "c", "r"]),
    "Saaarr": ("aaa", ["r", "rc"]),
    "Sarr": ("", ["a", "r", "r"]),
    "S1": ("", ["a'", "a'", "c'", "c'", "r'", "r'"]),
}

DEQUE_TESTS: dict[str, tuple[str, list[str]]] = {
    "D0": ("", ["al rr", "ar rl"]),
    "Da": ("al al", ["rr rr", "rl rl"]),
    "Db": ("", ["rr rl", "ar", "al"]),
    "Dm": ("", ["al' al' al'", "rr' rr' rr'", "rl'", "ar'"]),
    "Dq": ("", ["al'", "al'", "ar'", "ar'", "rl'", "rl'", "rr'", "rr'"]),
}

_CATALOG = {"queue": QUEUE_TESTS, "set": SET_TESTS, "deque": DEQUE_TESTS}

#: Tests small enough to check quickly; the remaining tests are available
#: but slow (guard with CHECKFENCE_LARGE=1).
SMALL_TESTS = {
    "queue": ["T0", "Ti2", "Tpc2"],
    "set": ["Sac", "Sar", "Saa"],
    "deque": ["D0", "Da"],
}

MEDIUM_TESTS = {
    "queue": ["T1", "Tpc3", "Ti3", "T53", "T54", "T55", "T56"],
    "set": ["Sacr", "Saacr", "Sarr"],
    "deque": ["Db", "Dm"],
}

LARGE_TESTS = {
    "queue": ["Tpc4", "Tpc5", "Tpc6"],
    "set": ["Sacr2", "Saaarr", "S1"],
    "deque": ["Dq"],
}


def _tokenize(text: str, category: str) -> list[str]:
    """Split a thread description into operation tokens."""
    tokens: list[str] = []
    for word in text.replace("'", "").split():
        if category == "deque":
            tokens.append(word)
            continue
        tokens.extend(word)
    if category == "deque":
        return tokens
    return tokens


def _invocations(tokens: list[str], category: str) -> list[Invocation]:
    mapping = _TOKENS[category]
    out = []
    for token in tokens:
        operation = mapping.get(token)
        if operation is None:
            raise KeyError(f"unknown operation token {token!r} for {category}")
        if operation in _HAS_ARGUMENT:
            out.append(Invocation(operation, (None,)))
        else:
            out.append(Invocation(operation))
    return out


def build_test(
    category: str, name: str, init: str, threads: list[str]
) -> SymbolicTest:
    """Build a SymbolicTest from the compact Fig. 8 notation."""
    init_invocations = [Invocation("init")]
    init_invocations += _invocations(_tokenize(init, category), category)
    thread_invocations = [
        _invocations(_tokenize(thread, category), category) for thread in threads
    ]
    display = f"{init} ( {' | '.join(threads)} )".strip()
    return SymbolicTest(
        name=name,
        threads=thread_invocations,
        init=init_invocations,
        description=display,
    )


def get_test(category: str, name: str) -> SymbolicTest:
    """Look up a Fig. 8 test by category and name."""
    try:
        tests = _CATALOG[category]
    except KeyError as exc:
        raise KeyError(f"unknown category {category!r}") from exc
    try:
        init, threads = tests[name]
    except KeyError as exc:
        raise KeyError(f"unknown {category} test {name!r}") from exc
    return build_test(category, name, init, threads)


def test_names(category: str, size: str = "all") -> list[str]:
    """Names of the catalog tests for a category, optionally filtered by
    size class ('small', 'medium', 'large', 'all')."""
    if size == "all":
        return list(_CATALOG[category])
    groups = {"small": SMALL_TESTS, "medium": MEDIUM_TESTS, "large": LARGE_TESTS}
    return list(groups[size][category])


def all_tests(category: str) -> dict[str, SymbolicTest]:
    return {name: get_test(category, name) for name in _CATALOG[category]}


def operation_count(test: SymbolicTest) -> int:
    """Number of operation invocations (excluding the implicit init)."""
    thread_ops = sum(len(thread) for thread in test.threads)
    init_ops = sum(1 for inv in test.init if inv.operation != "init")
    return thread_ops + init_ops
