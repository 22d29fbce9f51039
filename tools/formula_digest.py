#!/usr/bin/env python3
"""Print a sha256 of every encoded layer, and one over all of them.

A layer is one compiled test encoded under one memory model.  Its digest
covers what a solver and a decoder read of it: the variable count, the
CNF's literals and clause ends, every load's reads-from selectors
(``MemoryOrderEncoding.sources``) and the memory-order table.  The layers
are the small catalog (every implementation, fenced and unfenced, each
small test) under serial, sc, tso, pso and relaxed, then the Fig. 10 rows
of perfbench's ``fig10-large`` workload under relaxed.

Two trees that print the same total build the same formulas, so a
refactor of the encoder that claims byte identity shows it here.  Run it
under two ``PYTHONHASHSEED`` values to show that no formula depends on
the process's hash seed (matrix workers and the result store rely on it).

Usage::

    python tools/formula_digest.py
"""

from __future__ import annotations

import hashlib
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MODELS = ("serial", "sc", "tso", "pso", "relaxed")

#: perfbench's ``fig10-large`` rows, encoded under relaxed.
LARGE_ROWS = (
    ("msn", "Tpc4"),
    ("ms2", "Tpc4"),
    ("lazylist", "Sacr"),
    ("lazylist-unfenced", "Sacr"),
)


def layer_digest(encoded) -> str:
    """The sha256 of one encoded layer."""
    cnf = encoded.cnf
    digest = hashlib.sha256(b"vars %d\n" % cnf.num_vars)
    digest.update(cnf._lits.tobytes())
    digest.update(cnf._ends.tobytes())
    digest.update(repr(list(encoded.order.sources.items())).encode())
    digest.update(repr(encoded.order.table).encode())
    return digest.hexdigest()


def layers() -> list[tuple[str, str, str]]:
    """``(implementation, test, model)`` of every layer, in output order."""
    from repro.datatypes.registry import base_implementations, category_of
    from repro.harness.catalog import test_names

    out = [
        (implementation, test, model)
        for base in base_implementations()
        for implementation in (base, f"{base}-unfenced")
        for test in test_names(category_of(implementation), "small")
        for model in MODELS
    ]
    out += [(name, test, "relaxed") for name, test in LARGE_ROWS]
    return out


def digests():
    """``(name, digest)`` of every layer, in output order; each test is
    compiled once and its skeleton shared by its models, as a session
    shares it."""
    from repro.datatypes.registry import category_of, get_implementation
    from repro.encoding import compile_test
    from repro.encoding.formula import encode_test
    from repro.harness.catalog import get_test
    from repro.memorymodel.base import get_model

    compiled = {}
    for implementation, test, model in layers():
        key = (implementation, test)
        if key not in compiled:
            compiled.clear()
            compiled[key] = compile_test(
                get_implementation(implementation),
                get_test(category_of(implementation), test),
            )
        encoded = encode_test(compiled[key], get_model(model))
        yield f"{implementation}/{test}@{model}", layer_digest(encoded)


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python tools/formula_digest.py (it takes no flags)",
              file=sys.stderr)
        return 2
    src = os.path.join(REPO_ROOT, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    total = hashlib.sha256()
    for name, digest in digests():
        total.update(f"{name} {digest}\n".encode())
        print(name, digest, flush=True)
    print("total", total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
