"""A DIMACS competition-style command line around the internal solver.

``python -m repro.sat.dimacs_cli FILE.cnf`` reads a DIMACS file, solves it
with :class:`repro.sat.solver.Solver`, and reports the result in the SAT
competition output format: an ``s SATISFIABLE`` / ``s UNSATISFIABLE`` status
line, ``v`` lines with the model, and exit code 10 (SAT) or 20 (UNSAT).

``python -m repro.sat.dimacs_cli --incremental`` instead speaks a
line-based incremental protocol on stdin/stdout, keeping one persistent
solver (and therefore its learned clauses) across queries:

* ``a <lit> ... 0`` — add a clause;
* ``s <lit> ... 0`` — solve under the given assumptions; answers with an
  ``s`` status line followed by ``v`` lines + ``v 0`` (SAT) or an
  ``f <lit> ... 0`` failed-assumption core line (UNSAT);
* ``q`` — quit.

The incremental mode gives :class:`repro.sat.ipasir.IncrementalPipeBackend`
a subprocess solver that works without any system SAT library installed.
"""

from __future__ import annotations

import sys
from typing import IO

from repro.sat.dimacs import read_dimacs
from repro.sat.solver import Solver

SAT_EXIT_CODE = 10
UNSAT_EXIT_CODE = 20

_LITERALS_PER_LINE = 16


def _write_model(out: IO[str], solver: Solver) -> None:
    model = solver.model()
    literals = [
        var if model.get(var, False) else -var
        for var in range(1, solver.num_vars + 1)
    ]
    for start in range(0, len(literals), _LITERALS_PER_LINE):
        chunk = literals[start:start + _LITERALS_PER_LINE]
        out.write("v " + " ".join(str(lit) for lit in chunk) + "\n")
    out.write("v 0\n")


def _parse_literals(tokens: list[str], line: str) -> list[int]:
    literals = [int(token) for token in tokens]
    if not literals or literals[-1] != 0:
        raise ValueError(f"incremental command not 0-terminated: {line!r}")
    literals.pop()
    return literals


def run_incremental(source: IO[str], out: IO[str]) -> int:
    """The ``--incremental`` protocol loop (one persistent solver)."""
    solver = Solver()
    for line in source:
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line == "q":
            break
        command, *tokens = line.split()
        if command == "a":
            literals = _parse_literals(tokens, line)
            for lit in literals:
                solver.ensure_vars(abs(lit))
            solver.add_clause(literals)
        elif command == "s":
            assumptions = _parse_literals(tokens, line)
            for lit in assumptions:
                solver.ensure_vars(abs(lit))
            if solver.solve(assumptions=assumptions):
                out.write("s SATISFIABLE\n")
                _write_model(out, solver)
            else:
                out.write("s UNSATISFIABLE\n")
                core = solver.failed_assumptions()
                out.write("f " + " ".join(str(lit) for lit in core) + " 0\n")
            out.flush()
        else:
            print(f"c ignoring unknown command line: {line!r}",
                  file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--incremental"]:
        return run_incremental(sys.stdin, sys.stdout)
    if len(argv) != 1:
        print(
            "usage: python -m repro.sat.dimacs_cli (FILE.cnf | --incremental)",
            file=sys.stderr,
        )
        return 2
    cnf = read_dimacs(argv[0])
    solver = Solver(cnf)
    if not solver.solve():
        print("s UNSATISFIABLE")
        return UNSAT_EXIT_CODE
    print("s SATISFIABLE")
    _write_model(sys.stdout, solver)
    return SAT_EXIT_CODE


if __name__ == "__main__":
    sys.exit(main())
