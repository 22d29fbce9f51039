#!/usr/bin/env python3
"""Print a sha256 of every encoded layer, and one over all of them.

A layer is one compiled test encoded under one memory model.  Its digest
covers what a solver and a decoder read of it: the variable count, the
CNF's literals and clause ends, every load's reads-from selectors
(``MemoryOrderEncoding.sources``) and the memory-order table.  The layers
are the small catalog (every implementation, fenced and unfenced, each
small test) under serial, sc, tso, pso and relaxed, then the Fig. 10 rows
of perfbench's ``fig10-large`` workload under relaxed, then the
instrumented programs (a candidate fence with its selector at every slot)
that fence synthesis encodes for perfbench's ``synthesize`` pairs, under
pso and relaxed.

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

#: perfbench's ``synthesize`` pairs, whose instrumented programs are
#: encoded under each of ``SYNTHESIS_MODELS``.
SYNTHESIS_PAIRS = (
    ("msn-unfenced", "T0"),
    ("ms2-unfenced", "T0"),
    ("lazylist-unfenced", "Sac"),
    ("harris-unfenced", "Sac"),
)
SYNTHESIS_MODELS = ("pso", "relaxed")


def layer_digest(encoded) -> str:
    """The sha256 of one encoded layer."""
    cnf = encoded.cnf
    digest = hashlib.sha256(b"vars %d\n" % cnf.num_vars)
    digest.update(cnf._lits.tobytes())
    digest.update(cnf._ends.tobytes())
    digest.update(repr(list(encoded.order.sources.items())).encode())
    digest.update(repr(encoded.order.table).encode())
    return digest.hexdigest()


def layers() -> list[tuple[str, str, str, bool]]:
    """``(implementation, test, model, instrumented)`` of every layer, in
    output order; ``instrumented`` marks a synthesis layer."""
    from repro.datatypes.registry import base_implementations, category_of
    from repro.harness.catalog import test_names

    out = [
        (implementation, test, model, False)
        for base in base_implementations()
        for implementation in (base, f"{base}-unfenced")
        for test in test_names(category_of(implementation), "small")
        for model in MODELS
    ]
    out += [(name, test, "relaxed", False) for name, test in LARGE_ROWS]
    out += [
        (name, test, model, True)
        for name, test in SYNTHESIS_PAIRS
        for model in SYNTHESIS_MODELS
    ]
    return out


def layer_name(implementation: str, test: str, model: str,
               instrumented: bool) -> str:
    """A layer's name on the tool's output line."""
    name = f"{implementation}/{test}@{model}"
    return f"{name} instrumented" if instrumented else name


def digests():
    """``(name, digest)`` of every layer, in output order; each test is
    compiled once and its skeleton shared by its models, as a session
    shares it.  A synthesis layer's program is instrumented as
    ``repro.core.synthesize.synthesize_fences`` instruments it."""
    from repro.core.synthesize import instrument_program
    from repro.datatypes.registry import category_of, get_implementation
    from repro.encoding import compile_test
    from repro.encoding.formula import encode_test
    from repro.harness.catalog import get_test
    from repro.lang import compile_c
    from repro.memorymodel.base import get_model

    compiled = {}
    for implementation, test, model, instrumented in layers():
        key = (implementation, test, instrumented)
        if key not in compiled:
            compiled.clear()
            impl = get_implementation(implementation)
            program = None
            if instrumented:
                program, _ = instrument_program(
                    compile_c(impl.source, impl.name)
                )
            compiled[key] = compile_test(
                impl, get_test(category_of(implementation), test),
                program=program,
            )
        encoded = encode_test(compiled[key], get_model(model))
        name = layer_name(implementation, test, model, instrumented)
        yield name, layer_digest(encoded)


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
