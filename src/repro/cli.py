"""Command line interface (the ``checkfence`` entry point).

Examples::

    checkfence list
    checkfence check --impl msn-unfenced --test T0 --model relaxed
    checkfence check --impl msn --test T0 --solver ipasir:libcadical.so
    checkfence sweep --impl msn --test T0 --models serial,sc,tso,pso,relaxed
    checkfence spec --impl msn --test T0
    checkfence litmus --model relaxed
    checkfence matrix --impls msn,ms2 --models sc,relaxed --jobs 4
    checkfence matrix --litmus --models sc,tso,pso,relaxed --jobs 2 --json -
    checkfence oracle --litmus store-buffering --model tso
    checkfence oracle --spec "x=1 r0=y | y=1 r1=x" --model sc
    checkfence synthesize --impl msn-unfenced --test T0 --model relaxed
    checkfence synthesize --spec "x=1 y=1 | r0=y r1=x" --models tso,pso,relaxed
    checkfence fuzz --budget 500 --seed 1 --jobs 4
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.checker import CheckFence, CheckOptions
from repro.core.session import CheckSession
from repro.datatypes.registry import (
    TABLE1,
    available_implementations,
    base_implementations,
    category_of,
    describe_implementation,
    get_implementation,
)
from repro.harness.catalog import get_test, test_names
from repro.harness.matrix import (
    SHARD_AXES,
    JournalError,
    catalog_cells,
    litmus_cells,
    run_matrix,
)
from repro.harness.reporting import format_table
from repro.litmus.catalog import available_litmus_tests
from repro.memorymodel.base import available_models, get_model
from repro.sat.backend import make_backend_factory


def _check_options(args, **fields) -> CheckOptions:
    """CheckOptions from the shared flags a subcommand carries, plus
    command-specific ``fields``.  A flag left unset maps to None, so its
    ``CHECKFENCE_*`` environment fallback stays reachable."""
    values = {}
    if hasattr(args, "solver"):
        values["solver_backend"] = args.solver
    if hasattr(args, "store"):
        values["store"] = (
            False if args.no_store else True if args.store else None
        )
    if hasattr(args, "timeout"):
        values["timeout"] = args.timeout
        values["memory_limit_mb"] = args.memory_limit
    if hasattr(args, "spec_method"):
        values["specification_method"] = args.spec_method
    values.update(fields)
    return CheckOptions(**values)


def _backend_factory(options: CheckOptions):
    """The solver stack of commands that solve outside a CheckSession."""
    return make_backend_factory(options.solver_backend)


def _degraded_exit(results) -> int:
    """Exit code for a cell-result list with no hard failures: 3 when any
    cell degraded (TIMEOUT/OOM/CRASHED — the run is incomplete, which is
    neither a clean pass nor a FAIL), else 0."""
    return 3 if any(r.degraded for r in results) else 0


def _names(text: str) -> list[str]:
    """The names of a comma-separated flag value, blanks dropped."""
    return [name.strip() for name in text.split(",") if name.strip()]


def _matrix_implementations(impls: str) -> list[str]:
    """The implementations ``matrix --impls`` selects."""
    if impls == "base":
        return base_implementations()
    if impls == "all":
        return available_implementations()
    return _names(impls)


def _resolve_names(args) -> None:
    """Look up every implementation, test and model name the command was
    given, so an unknown one is a usage error before any work; raises
    the lookup's KeyError.  ``matrix --tests`` is left to the cells: a
    test missing from one implementation's category is that cell's
    ERROR."""
    models = [args.model] if getattr(args, "model", None) else []
    models += _names(getattr(args, "models", None) or "")
    for model in models:
        get_model(model)
    impl = getattr(args, "impl", None)
    implementations = [impl] if impl else []
    if getattr(args, "impls", None) and not args.litmus:
        implementations += _matrix_implementations(args.impls)
    for implementation in implementations:
        get_implementation(implementation)
    if impl and getattr(args, "test", None):
        get_test(category_of(impl), args.test)


def _cmd_list(_args) -> int:
    print("Implementations (Table 1 plus variants):")
    rows = []
    for name in available_implementations():
        rows.append((name, category_of(name), describe_implementation(name)))
    print(format_table(["implementation", "category", "description"], rows))
    print()
    print("Memory models:", ", ".join(m.name for m in available_models()))
    print()
    for category in ("queue", "set", "deque"):
        print(f"{category} tests: {', '.join(test_names(category))}")
    return 0


def _cmd_table1(_args) -> int:
    print(format_table(["name", "data type", "description"], TABLE1))
    print()
    print("Checkable variants:")
    rows = [
        (name, describe_implementation(name))
        for name in available_implementations()
    ]
    print(format_table(["variant", "description"], rows))
    return 0


def _cmd_check(args) -> int:
    implementation = get_implementation(args.impl)
    category = category_of(args.impl)
    test = get_test(category, args.test)
    options = _check_options(
        args,
        use_range_analysis=not args.no_range_analysis,
        lazy_loop_bounds=args.lazy_bounds,
        default_loop_bound=args.bound,
    )
    checker = CheckFence(implementation, options)
    result = checker.check(test, get_model(args.model))
    print(result.summary())
    if result.stats.solver_backend:
        if result.stats.solver_counters_available:
            print(
                f"solver: {result.stats.solver_backend} "
                f"({result.stats.solver_decisions} decisions, "
                f"{result.stats.solver_conflicts} conflicts, "
                f"{result.stats.solver_restarts} restarts)"
            )
        else:
            print(
                f"solver: {result.stats.solver_backend} "
                "(external backend; counters unavailable)"
            )
    fallback = checker.session.backend_factory.fallback_reason
    if fallback:
        print(f"note: {fallback}")
    if result.passed:
        return 0
    return 3 if result.degraded else 1


def _cmd_sweep(args) -> int:
    implementation = get_implementation(args.impl)
    category = category_of(args.impl)
    test = get_test(category, args.test)
    session = CheckSession(implementation, _check_options(args))
    models = [get_model(name) for name in _names(args.models)]
    results = session.sweep(test, models)
    rows = [
        (
            r.memory_model,
            r.verdict,
            r.stats.observation_set_size,
            r.stats.cnf_clauses,
            r.stats.solver_backend,
            f"{r.stats.total_seconds:.2f}s",
        )
        for r in results
    ]
    print(
        f"sweep of {args.impl} / {args.test} over "
        f"{', '.join(m.name for m in models)} "
        f"(compiled {session.cache_stats['compile']}x, "
        f"spec mined {session.cache_stats['mine']}x):"
    )
    print(format_table(
        ["model", "verdict", "spec size", "clauses", "backend", "total"], rows
    ))
    if any(r.failed for r in results):
        return 1
    return _degraded_exit(results)


def _cmd_spec(args) -> int:
    implementation = get_implementation(args.impl)
    category = category_of(args.impl)
    test = get_test(category, args.test)
    checker = CheckFence(implementation, _check_options(args))
    compiled = checker.compile(test, "serial")
    spec = checker.specification(test, compiled)
    print(
        f"observation set for {args.impl} / {args.test}: "
        f"{len(spec)} observations (mined with the {spec.method} method in "
        f"{spec.mining_seconds:.2f}s)"
    )
    for observation in sorted(spec.observations):
        print("  " + spec.describe(observation))
    return 0


def _cmd_litmus(args) -> int:
    model = get_model(args.model)
    matrix = run_matrix(
        litmus_cells([model.name]), jobs=args.jobs,
        options=_check_options(args),
    )
    catalog = available_litmus_tests()
    rows = [
        (r.cell.test, catalog[r.cell.test].observation, r.verdict)
        for r in matrix.results
    ]
    print(f"litmus outcomes under {model.name}:")
    print(format_table(["test", "observation", "verdict"], rows))
    for failed in matrix.errors:
        print(f"error in {failed.cell.key}: {failed.error}", file=sys.stderr)
    return 2 if matrix.errors else _degraded_exit(matrix.results)


def _matrix_progress(done: int, total: int, result) -> None:
    print(f"[{done}/{total}] {result.cell.key}: {result.verdict}",
          file=sys.stderr)


def _emit_json(payload: dict, target: str, label: str):
    """Write a command's JSON payload (``target`` is a path or ``-``) and
    return the stream the human-readable report must use: stderr whenever
    JSON is in play, so ``--json - | jq`` always receives pure JSON."""
    text = json.dumps(payload, indent=2, default=str)
    if target == "-":
        print(text)
    else:
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"{label} JSON written to {target}", file=sys.stderr)
    return sys.stderr


def _cmd_matrix(args) -> int:
    models = _names(args.models)
    options = _check_options(args)
    if args.litmus:
        cells = litmus_cells(models)
    else:
        cells = catalog_cells(
            _matrix_implementations(args.impls),
            models=models,
            tests=_names(args.tests) if args.tests else None,
            size=args.size,
        )
    if not cells:
        print("matrix: no cells selected", file=sys.stderr)
        return 2
    if args.resume and not args.journal:
        print("matrix: --resume requires --journal", file=sys.stderr)
        return 2
    try:
        matrix = run_matrix(
            cells,
            jobs=args.jobs,
            shard_by=args.shard_by,
            options=options,
            progress=None if args.quiet else _matrix_progress,
            journal=args.journal,
            resume=args.resume,
        )
    except JournalError as exc:
        print(f"matrix: {exc}", file=sys.stderr)
        return 2
    if args.json is not None:
        report = _emit_json(matrix.as_dict(), args.json, "matrix")
        print(matrix.summary(), file=report)
    else:
        print(matrix.format_table())
        print(matrix.summary())
    for failed in matrix.errors:
        print(f"error in {failed.cell.key}: {failed.error}", file=sys.stderr)
    for cell in matrix.degraded:
        print(f"{cell.degraded} in {cell.cell.key}: "
              f"{'; '.join(cell.notes) or cell.error}", file=sys.stderr)
    if matrix.ok:
        return 0
    # FAIL / DIVERGE / ERROR keep the historical exit code 1; a run whose
    # only blemish is degraded cells (TIMEOUT/OOM/CRASHED) exits 3 so
    # callers can tell "bug found" from "budget ran out".
    if matrix.errors or any(
        not r.ok and not r.degraded for r in matrix.results
    ):
        return 1
    return _degraded_exit(matrix.results)


def _cmd_oracle(args) -> int:
    from repro.fuzz.generator import FuzzProgram
    from repro.oracle import differential_check, parse_engines

    if bool(args.litmus) == bool(args.spec):
        print("oracle: pass exactly one of --litmus or --spec",
              file=sys.stderr)
        return 2
    try:
        engines = parse_engines(args.engines)
    except ValueError as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        return 2
    model = get_model(args.model)
    if args.litmus:
        from repro.litmus.catalog import compiled_litmus

        catalog = available_litmus_tests()
        if args.litmus not in catalog:
            print(f"oracle: unknown litmus test {args.litmus!r} "
                  f"(known: {', '.join(sorted(catalog))})", file=sys.stderr)
            return 2
        compiled = compiled_litmus(catalog[args.litmus])
        name = args.litmus
    else:
        from repro.fuzz.generator import FuzzSpecError

        try:
            compiled = FuzzProgram.parse(args.spec).compile()
        except FuzzSpecError as exc:
            print(f"oracle: {exc}", file=sys.stderr)
            return 2
        name = args.spec
    report = differential_check(
        compiled, model, backend_factory=_backend_factory(_check_options(args)),
        name=name, engines=engines,
    )
    labels = compiled.observation_labels()
    print(f"{name} @ {model.name}: observation slots "
          f"[{', '.join(labels)}]")
    ordered = [report.engine_results[e] for e in report.engines]
    for engine in ordered:
        if engine.ok:
            detail = ", ".join(
                f"{key} {value}" for key, value in engine.stats.items()
            )
            line = (f"{engine.engine}: {len(engine.outcomes)} outcomes "
                    f"in {engine.seconds:.3f}s")
            if detail:
                line += f" ({detail})"
        else:
            line = f"{engine.engine}: INCONCLUSIVE ({engine.reason})"
        print(line)
    conclusive = [engine for engine in ordered if engine.ok]
    union: set = set()
    for engine in conclusive:
        union |= engine.outcomes
    if len(conclusive) > 1:
        for outcome in sorted(union):
            allowing = [e.engine for e in conclusive if outcome in e.outcomes]
            if len(allowing) == len(conclusive):
                marker = "both" if len(conclusive) == 2 else "all"
            else:
                marker = f"ONLY {'/'.join(allowing)}"
            print(f"  {outcome}  [{marker}]")
    else:
        for outcome in sorted(union):
            print(f"  {outcome}")
    if len(ordered) > 1:
        print(report.describe())
    # Exit 1 only on a proven divergence; INCONCLUSIVE engines are a
    # skipped comparison, not a failure.
    return 1 if report.diverged else 0


#: Flags (argparse destinations) that each ``synthesize`` mode, named by
#: the flag selecting it, would ignore; combining them is a usage error.
_SYNTHESIZE_IGNORED = {
    "--fuzz-budget": ("test", "solver", "store", "no_store", "json", "budget"),
    "--spec": ("test", "store", "no_store", "seed"),
    "--impl": ("seed",),
}


def _cmd_synthesize(args) -> int:
    models = _names(args.models) if args.models else [args.model]
    if args.fuzz_budget is not None:
        if args.impl or args.spec:
            print("synthesize: --fuzz-budget excludes --impl/--spec",
                  file=sys.stderr)
            return 2
        mode = "--fuzz-budget"
    elif bool(args.impl) == bool(args.spec):
        print("synthesize: pass exactly one of --impl or --spec",
              file=sys.stderr)
        return 2
    elif args.impl and not args.test:
        print("synthesize: --impl requires --test", file=sys.stderr)
        return 2
    else:
        mode = "--spec" if args.spec else "--impl"
    # Unset flags hold None (valued) or False (store_true); a given value
    # may be 0, which ``in (None, False)`` would mistake for unset.
    ignored = [
        "--" + name.replace("_", "-")
        for name in _SYNTHESIZE_IGNORED[mode]
        if getattr(args, name) is not None and getattr(args, name) is not False
    ]
    if ignored:
        print(f"synthesize: {', '.join(ignored)} has no effect with {mode}",
              file=sys.stderr)
        return 2
    budget = (
        args.budget if args.budget is not None
        else CheckOptions.synthesis_budget
    )
    if mode == "--fuzz-budget":
        from repro.core.synthesize import fuzz_synthesis_smoke

        seed = args.seed if args.seed is not None else 1
        report = fuzz_synthesis_smoke(args.fuzz_budget, seed, models)
        for failure in report.failures:
            print(f"FAIL {failure}")
        print(report.describe())
        return 0 if report.ok else 1
    if mode == "--spec":
        from repro.core.synthesize import synthesize_litmus
        from repro.fuzz.generator import FuzzProgram, FuzzSpecError

        try:
            program = FuzzProgram.parse(args.spec)
        except FuzzSpecError as exc:
            print(f"synthesize: {exc}", file=sys.stderr)
            return 2
        result = synthesize_litmus(
            program,
            models,
            backend_factory=_backend_factory(_check_options(args)),
            exact_budget=budget,
        )
        target = f"{args.spec!r}"
    else:
        implementation = get_implementation(args.impl)
        category = category_of(args.impl)
        test = get_test(category, args.test)
        options = _check_options(args, synthesis_budget=budget)
        session = CheckSession(implementation, options)
        result = session.synthesize(test, models)
        target = f"{args.impl} / {args.test}"

    report = sys.stdout
    if args.json is not None:
        report = _emit_json(result.as_dict(), args.json, "synthesize")
    stats = result.stats
    print(
        f"fence synthesis for {target} under {', '.join(result.models)} "
        f"({stats.candidates} candidate fences, {stats.solves} solves, "
        f"{stats.solve_seconds:.2f}s solving)",
        file=report,
    )
    if result.already_passes:
        print("already passes; no fences needed", file=report)
        return 0
    if not result.feasible:
        for note in result.notes:
            print(f"infeasible: {note}", file=report)
        return 1
    print(
        f"failing queries repaired: {', '.join(result.failing_queries)}",
        file=report,
    )
    for fence in result.fences:
        print(f"  insert {fence.describe()}", file=report)
    optimality = "cost-optimal" if result.optimal else "1-minimal"
    print(
        f"{len(result.fences)} fence(s), total cost {result.cost} "
        f"({optimality}); independently re-checked: "
        f"sufficient={'yes' if result.verified_sufficient else 'NO'}, "
        f"minimal={'yes' if result.verified_minimal else 'NO'}",
        file=report,
    )
    for note in result.notes:
        print(f"note: {note}", file=report)
    return 0 if result.verified_sufficient and result.verified_minimal else 1


def _cmd_fuzz(args) -> int:
    from repro.fuzz import FuzzConfig, run_fuzz
    from repro.oracle import parse_engines

    models = _names(args.models)
    if not models or args.budget <= 0:
        # Mirror the matrix command's guard: a campaign with no cells
        # would "pass" having compared nothing.
        print("fuzz: no cells selected (check --models / --budget)",
              file=sys.stderr)
        return 2
    try:
        engines = parse_engines(args.engines)
    except ValueError as exc:
        print(f"fuzz: {exc}", file=sys.stderr)
        return 2
    config = FuzzConfig(
        max_threads=args.max_threads,
        max_ops=args.max_ops,
        num_addresses=args.addrs,
    )
    if args.resume and not args.journal:
        print("fuzz: --resume requires --journal", file=sys.stderr)
        return 2
    try:
        result = run_fuzz(
            budget=args.budget,
            seed=args.seed,
            models=models,
            config=config,
            jobs=args.jobs,
            shard_by=args.shard_by,
            options=_check_options(args),
            progress=None if args.quiet else _matrix_progress,
            shrink=not args.no_shrink,
            engines=engines,
            journal=args.journal,
            resume=args.resume,
        )
    except JournalError as exc:
        print(f"fuzz: {exc}", file=sys.stderr)
        return 2
    report = sys.stdout
    if args.json is not None:
        report = _emit_json(result.as_dict(), args.json, "fuzz")
    print(result.summary(), file=report)
    for divergence in result.divergences:
        print(f"DIVERGENCE under {divergence.model}: "
              f"{divergence.description}", file=report)
        print(f"  replay: checkfence oracle --model {divergence.model} "
              f"--spec {divergence.shrunk_spec!r}", file=report)
    for entry in result.inconclusive:
        print(f"inconclusive: {entry['spec']!r} @ {entry['model']}: "
              f"{'; '.join(entry['notes'])}", file=sys.stderr)
    for entry in result.degraded:
        print(f"{entry['verdict']}: {entry['spec']!r} @ {entry['model']}: "
              f"{'; '.join(entry['notes'])}", file=sys.stderr)
    for failed in result.matrix.errors:
        print(f"error in {failed.cell.key}: {failed.error}", file=sys.stderr)
    if result.matrix.errors:
        return 2
    if not result.ok:
        return 1
    # Divergence-free but incomplete: degraded cells exit 3, never 0.
    return _degraded_exit(result.matrix.results)


def _cmd_cache(args) -> int:
    from repro.core.store import VerdictStore

    store = VerdictStore()
    if args.clear:
        removed = store.clear()
        print(f"removed {removed} cell(s) from {store.path}")
        return 0
    stats = store.stats()
    print(f"store:  {stats['path']}")
    if not stats["exists"]:
        print("cells:  0 (store not created yet)")
        return 0
    print(f"size:   {stats['size_bytes']} bytes")
    print(f"cells:  {stats['cells']}")
    for kind, count in sorted(stats["kinds"].items()):
        print(f"  {kind}: {count}")
    return 0


def _flag_group(*arguments) -> argparse.ArgumentParser:
    """A parent parser carrying ``arguments`` — (flags, kwargs) pairs — so
    a subcommand attaches only the shared flags it honors."""
    group = argparse.ArgumentParser(add_help=False)
    for flags, kwargs in arguments:
        group.add_argument(*flags, **kwargs)
    return group


def _shared_flags() -> dict[str, argparse.ArgumentParser]:
    """The parent parsers of the flags several subcommands share."""
    return {
        "solver": _flag_group(
            (("--solver",), dict(
                default=None,
                help="SAT backend: auto (the native C kernel, built on "
                "first use; the pure-Python kernel when it cannot be "
                "built), internal (the pure-Python kernel), or "
                "ipasir:<path-to-shared-library> (a file or a soname such "
                "as libcadical.so) (default: CHECKFENCE_SOLVER or auto)",
            )),
        ),
        "store": _flag_group(
            (("--store",), dict(
                action="store_true",
                help="consult and populate the persistent on-disk result "
                "store (verdicts + mined observation sets under "
                "~/.cache/checkfence or CHECKFENCE_CACHE_DIR, keyed by "
                "content hash of source, test, model, options, and checker "
                "code version; see 'checkfence cache')",
            )),
            (("--no-store",), dict(
                action="store_true",
                help="never touch the persistent store, overriding "
                "CHECKFENCE_STORE=1",
            )),
        ),
        "budget": _flag_group(
            (("--timeout",), dict(
                type=float, default=None, metavar="SECONDS",
                help="per-check wall-clock budget; an expired check reports "
                "the first-class TIMEOUT verdict (exit code 3) instead of "
                "hanging (env fallback: CHECKFENCE_TIMEOUT)",
            )),
            (("--memory-limit",), dict(
                type=float, default=None, metavar="MB",
                help="per-check resident-memory budget in megabytes; a "
                "breach reports the OOM verdict "
                "(env fallback: CHECKFENCE_MEMORY_LIMIT)",
            )),
        ),
        "spec_method": _flag_group(
            (("--spec-method",), dict(
                default="auto", choices=["auto", "reference", "sat"],
                help="specification mining method (default: auto)",
            )),
        ),
        "jobs": _flag_group(
            (("--jobs",), dict(
                type=int, default=None,
                help="worker processes (default: CHECKFENCE_JOBS or 1; "
                "1 = deterministic serial path)",
            )),
        ),
        "json": _flag_group(
            (("--json",), dict(
                default=None, metavar="FILE",
                help="write the command's result as JSON to FILE, or '-' "
                "for stdout",
            )),
        ),
        "quiet": _flag_group(
            (("--quiet",), dict(
                action="store_true",
                help="suppress the per-cell progress stream on stderr",
            )),
        ),
        "journal": _flag_group(
            (("--journal",), dict(
                default=None, metavar="FILE",
                help="append one JSON line per completed cell to FILE as "
                "the run progresses, so a killed run can be picked up with "
                "--resume",
            )),
            (("--resume",), dict(
                action="store_true",
                help="read the --journal file first and re-run only cells "
                "it does not already record a verdict for (ERROR/CRASHED "
                "cells are retried)",
            )),
        ),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="checkfence",
        description="CheckFence reproduction: check concurrent data types on "
        "relaxed memory models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = _shared_flags()

    def command(name, help, *groups):
        return sub.add_parser(
            name, help=help, parents=[shared[group] for group in groups]
        )

    command(
        "list",
        "list implementations (with descriptions), memory models, "
        "and Fig. 8 tests",
    )
    command(
        "table1",
        "print Table 1 of the paper plus every checkable variant",
    )

    check_parser = command(
        "check",
        "run one check: one implementation, one Fig. 8 test, one "
        "memory model (exit code 1 on FAIL)",
        "solver", "store", "budget", "spec_method",
    )
    check_parser.add_argument("--impl", required=True,
                              help="implementation variant (see 'list')")
    check_parser.add_argument("--test", required=True,
                              help="Fig. 8 test name, e.g. T0")
    check_parser.add_argument("--model", default="relaxed",
                              help="memory model (default: relaxed)")
    check_parser.add_argument("--bound", type=int, default=None,
                              help="default loop bound")
    check_parser.add_argument("--lazy-bounds", action="store_true",
                              help="refine loop bounds lazily (Section 3.3)")
    check_parser.add_argument("--no-range-analysis", action="store_true",
                              help="disable the range analysis (Fig. 11c)")

    sweep_parser = command(
        "sweep",
        "check ONE implementation/test pair under several memory models "
        "in one warm session (compiles and mines the specification once); "
        "for many implementations or tests, or to use several cores, see "
        "'matrix'",
        "solver", "store", "budget", "spec_method",
    )
    sweep_parser.add_argument("--impl", required=True,
                              help="implementation variant (see 'list')")
    sweep_parser.add_argument("--test", required=True,
                              help="Fig. 8 test name, e.g. T0")
    sweep_parser.add_argument(
        "--models", default="serial,sc,tso,pso,relaxed",
        help="comma-separated memory models "
        "(default: serial,sc,tso,pso,relaxed)",
    )

    spec_parser = command(
        "spec",
        "mine and print a test's observation set (the specification "
        "of Section 3.2)",
        "spec_method",
    )
    spec_parser.add_argument("--impl", required=True,
                             help="implementation variant (see 'list')")
    spec_parser.add_argument("--test", required=True,
                             help="Fig. 8 test name, e.g. T0")

    litmus_parser = command(
        "litmus",
        "evaluate the Fig. 2 litmus catalog under one memory model",
        "solver", "budget", "jobs",
    )
    litmus_parser.add_argument(
        "--model", default="relaxed",
        help="memory model to evaluate under (default: relaxed)",
    )

    matrix_parser = command(
        "matrix",
        "run a (implementation x test x model) check matrix, sharded "
        "across a multiprocessing worker pool",
        "solver", "store", "budget", "spec_method", "jobs", "json", "quiet",
        "journal",
    )
    matrix_parser.add_argument(
        "--impls", default="base",
        help="comma-separated implementation variants, or 'base' (the five "
        "Table 1 implementations) or 'all' (every variant); ignored with "
        "--litmus (default: base)",
    )
    matrix_parser.add_argument(
        "--tests", default=None,
        help="comma-separated Fig. 8 test names (all implementations must "
        "then share one category); default: the catalog tests of each "
        "implementation's category, filtered by --size",
    )
    matrix_parser.add_argument(
        "--size", default="small",
        choices=["small", "medium", "large", "all"],
        help="catalog size class when --tests is not given (default: small)",
    )
    matrix_parser.add_argument(
        "--models", default="relaxed",
        help="comma-separated memory models (default: relaxed)",
    )
    matrix_parser.add_argument(
        "--litmus", action="store_true",
        help="check the litmus catalog instead of data type implementations",
    )
    matrix_parser.add_argument(
        "--shard-by", default="test", choices=list(SHARD_AXES),
        help="how to batch cells into shards: 'test' batches by compiled-test "
        "key (one session compiles and mines once per (impl, test)), "
        "'impl' batches whole implementations, 'model' batches by memory "
        "model (default: test)",
    )

    engines_help = (
        "comma-separated consistency engines to compare — any of "
        "enumerator, rfcheck, sat — or 'all' (default: enumerator,sat)"
    )

    oracle_parser = command(
        "oracle",
        "enumerate a litmus-shaped program's outcome set with the "
        "selected consistency engines (operational enumerator, reads-from "
        "closure engine, SAT mining) and cross-check them pairwise "
        "(exit codes: 0 agreement or no verdict — INCONCLUSIVE engines "
        "skip the comparison, they never fail it — 1 proven divergence, "
        "2 usage error)",
        "solver",
    )
    oracle_parser.add_argument(
        "--litmus", default=None, metavar="NAME",
        help="a litmus catalog test (see 'litmus')",
    )
    oracle_parser.add_argument(
        "--spec", default=None, metavar="SPEC",
        help="a fuzz program spec, e.g. 'x=1 r0=y | y=1 r1=x'",
    )
    oracle_parser.add_argument("--model", default="relaxed",
                               help="memory model (default: relaxed)")
    oracle_parser.add_argument("--engines", default=None, help=engines_help)

    synth_parser = command(
        "synthesize",
        "synthesize a minimal fence set that turns a FAILing "
        "(implementation, test, model) cell into PASS, printing placements "
        "as LSL source locations (exit code 1 when infeasible or the "
        "independent re-check fails; 2 when a flag is combined with a "
        "mode that ignores it)",
        "solver", "store", "json",
    )
    synth_parser.add_argument("--impl", default=None,
                              help="implementation variant (see 'list')")
    synth_parser.add_argument("--test", default=None,
                              help="Fig. 8 test name, e.g. T0")
    synth_parser.add_argument(
        "--spec", default=None, metavar="SPEC",
        help="synthesize for a fuzz litmus program instead, e.g. "
        "'x=1 y=1 | r0=y r1=x' (the specification is its SC outcome set)",
    )
    synth_parser.add_argument("--model", default="relaxed",
                              help="memory model (default: relaxed)")
    synth_parser.add_argument(
        "--models", default=None,
        help="comma-separated memory models; one fence set is synthesized "
        "that repairs ALL of them (overrides --model)",
    )
    synth_parser.add_argument(
        "--budget", type=int, default=None,
        help="solve budget of the escalation from destructive deletion to "
        "the exact minimal-correction search; 0 stops at the 1-minimal set "
        "(default: 60)",
    )
    synth_parser.add_argument(
        "--fuzz-budget", type=int, default=None, metavar="N",
        help="smoke mode: synthesize + verify fences for N seeded random "
        "litmus programs instead of a single target (exit 1 on any "
        "unrepaired or oracle-refuted program)",
    )
    synth_parser.add_argument(
        "--seed", type=int, default=None,
        help="generator seed for --fuzz-budget (default: 1)",
    )

    fuzz_parser = command(
        "fuzz",
        "differential fuzzing: generate random litmus programs and "
        "compare the operational oracle against the SAT encoding on every "
        "memory model (exit code 1 on divergence)",
        "solver", "budget", "jobs", "json", "quiet", "journal",
    )
    fuzz_parser.add_argument("--budget", type=int, default=100,
                             help="number of distinct programs (default: 100)")
    fuzz_parser.add_argument("--seed", type=int, default=1,
                             help="generator seed; the whole campaign is "
                             "replayable from it (default: 1)")
    fuzz_parser.add_argument(
        "--models", default="serial,sc,tso,pso,relaxed",
        help="comma-separated memory models "
        "(default: serial,sc,tso,pso,relaxed)",
    )
    fuzz_parser.add_argument("--max-threads", type=int, default=3,
                             help="threads per program (default: up to 3)")
    fuzz_parser.add_argument("--max-ops", type=int, default=4,
                             help="operations per thread (default: up to 4)")
    fuzz_parser.add_argument("--addrs", type=int, default=2,
                             help="shared addresses (default: 2)")
    fuzz_parser.add_argument("--engines", default=None, help=engines_help)
    fuzz_parser.add_argument(
        "--shard-by", default="test", choices=list(SHARD_AXES),
        help="matrix sharding axis; 'test' compiles each program once for "
        "all models (default: test)",
    )
    fuzz_parser.add_argument("--no-shrink", action="store_true",
                             help="report divergences without minimizing them")

    cache_parser = command(
        "cache",
        "inspect (default) or clear the persistent on-disk result "
        "store populated by --store / CHECKFENCE_STORE=1",
    )
    cache_parser.add_argument("--clear", action="store_true",
                              help="delete every stored cell")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A bad solver spec or an unknown name is a usage error, reported
    # before any work.
    try:
        if hasattr(args, "solver"):
            make_backend_factory(args.solver)
        _resolve_names(args)
    except (ValueError, KeyError) as exc:
        # args[0]: str() of a KeyError would quote the message.
        print(f"{args.command}: {exc.args[0]}", file=sys.stderr)
        return 2
    handlers = {
        "list": _cmd_list,
        "table1": _cmd_table1,
        "check": _cmd_check,
        "sweep": _cmd_sweep,
        "spec": _cmd_spec,
        "litmus": _cmd_litmus,
        "matrix": _cmd_matrix,
        "oracle": _cmd_oracle,
        "synthesize": _cmd_synthesize,
        "fuzz": _cmd_fuzz,
        "cache": _cmd_cache,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        # The matrix pool has already torn its workers down by the time
        # the interrupt reaches here; report the conventional 128+SIGINT.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
