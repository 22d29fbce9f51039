"""Docs stay honest: links resolve, quoted code names exist and the
tutorial's commands parse.

The full tutorial smoke run (executing every code block) lives in the CI
docs job (``python tools/docs_check.py --tutorial``); tier-1 keeps the
cheap invariants so a broken link or a renamed CLI flag fails fast.
"""

import importlib.util
import os
import re
import sys

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
)))


@pytest.fixture(scope="module")
def docs_check():
    spec = importlib.util.spec_from_file_location(
        "docs_check", os.path.join(_REPO_ROOT, "tools", "docs_check.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_tree_exists():
    for name in ("architecture.md", "tutorial.md", "paper-map.md"):
        assert os.path.exists(os.path.join(_REPO_ROOT, "docs", name))


def test_intra_repo_markdown_links_resolve(docs_check):
    problems = docs_check.check_links()
    assert problems == []


def test_link_checker_detects_breakage(tmp_path, docs_check, monkeypatch):
    bad = tmp_path / "bad.md"
    bad.write_text("see [missing](no/such/file.md) and [ok](ok.md)")
    (tmp_path / "ok.md").write_text("fine")
    monkeypatch.setattr(docs_check, "REPO_ROOT", str(tmp_path))
    problems = docs_check.check_links()
    assert len(problems) == 1 and "no/such/file.md" in problems[0]


def test_docs_code_names_resolve(docs_check):
    assert docs_check.check_symbols() == []


def test_symbol_checker_reports_stale_names(tmp_path, docs_check, monkeypatch):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "`repro.encoding.memory.MemoryOrderEncoding.order` is stale, "
        "`repro.encoding.memory.AccessTable.accesses` is an instance "
        "attribute, `repro.sat.native.load()` a function.\n"
    )
    (tmp_path / "docs" / "guide.md").write_text(
        "`MemoryOrderEncoding.order(i, j)` is stale, "
        "`MemoryOrderEncoding.resolved(i, j)` and `CheckOptions.timeout` "
        "exist, `Path.exists` is not ours.\n"
        "```python\n`AccessTable.nosuch` in a code block is not prose\n```\n"
    )
    monkeypatch.setattr(docs_check, "REPO_ROOT", str(tmp_path))
    problems = docs_check.check_symbols()
    assert problems == [
        "README.md: unknown name "
        "`repro.encoding.memory.MemoryOrderEncoding.order`",
        "docs/guide.md: unknown name `MemoryOrderEncoding.order(i, j)`",
    ]


def test_tutorial_commands_extracted(docs_check):
    commands = docs_check.tutorial_commands()
    kinds = [kind for kind, _, _ in commands]
    assert kinds.count("sh") >= 6      # list/spec/check x2/matrix x3
    assert "python" in kinds           # the C -> LSL snippet
    # The failing check declares its expected nonzero exit code.
    failing = [
        expected for _, argv, expected in commands
        if "msn-unfenced" in argv and "check" in argv
    ]
    assert failing == [1]
    # The synthesize quickstart repairs that same cell and exits cleanly.
    synthesized = [
        expected for _, argv, expected in commands
        if "msn-unfenced" in argv and "synthesize" in argv
    ]
    assert synthesized == [0]
    # checkfence shorthand is rewritten to drive the in-tree CLI.
    for kind, argv, _ in commands:
        if kind == "sh":
            assert argv[0] == sys.executable and "repro.cli" in argv


def test_quoted_lines_mask_the_wall_clock(docs_check):
    """Every quoted line must be printed, in order, with durations, rates,
    table rules and runs of blanks masked; lines may be left out."""
    printed = (
        "[PASS] q / T1 on sc: 2 accesses, 5 clauses, total 0.01s\n"
        "[FAIL] q / T0 on tso: 3 accesses, 10 clauses, total 1.50s\n"
        "  #0   ld x  value=1  <- #3\n"
        "cell  time\n"
        "----  -----\n"
        "q     0.12s\n"
        "40 programs in 0.25s (157.0 programs/s)\n"
    )
    quoted = [
        "[FAIL] q / T0 on tso: 3 accesses, 10 clauses, total 0.02s",
        "    #0   ld x  value=1      <- #3",
        "",
        "----  ----",
        "q     38ms",
        "40 programs in 1.05s (38.1 programs/s)",
    ]
    assert docs_check.stale_lines(quoted, printed) == []
    stale = ["[FAIL] q / T0 on tso: 3 accesses, 11 clauses, total 0.02s"]
    assert docs_check.stale_lines(stale, printed) == [
        f"tutorial quotes {stale[0]!r} but the command printed "
        "'[PASS] q / T1 on sc: 2 accesses, 5 clauses, total 0.01s'"
    ]
    # Out of order: the verdict line cannot come after the trace line.
    assert docs_check.stale_lines([quoted[1], quoted[0]], printed) == [
        f"tutorial quotes {quoted[0]!r} but the command printed "
        "'cell  time'"
    ]


def test_a_quote_past_the_end_of_the_output_names_the_end(docs_check):
    printed = "[PASS] q / T1 on sc: 2 accesses, total 0.01s\nsolver: native\n"
    assert docs_check.stale_lines(
        ["solver: native", "[PASS] q / T1 on sc: 2 accesses, total 0.02s"],
        printed,
    ) == [
        "tutorial quotes '[PASS] q / T1 on sc: 2 accesses, total 0.02s' "
        "but the command printed '(end)'"
    ]


def test_tutorial_run_names_a_stale_clause_count(tmp_path, docs_check):
    """The tutorial's quoted msn-unfenced/T0 verdict line, its clause
    count off by one, fails the run: the problem names the quoted line
    and the line the check printed (with the tutorial's count)."""
    quoted = next(
        line
        for language, block in docs_check.tutorial_blocks()
        if language == "text"
        for line in block
        if line.startswith("[FAIL] msn-unfenced / T0 on relaxed:")
    )
    clauses = int(re.search(r"(\d+) clauses", quoted).group(1))
    stale = quoted.replace(f"{clauses} clauses", f"{clauses + 1} clauses")
    snippet = tmp_path / "tutorial.md"
    snippet.write_text(
        "```sh\n"
        "checkfence check --impl msn-unfenced --test T0 --model relaxed"
        "  # exit: 1\n"
        "```\n\n"
        f"```text\n{stale}\n```\n"
    )
    problems = docs_check.run_tutorial(str(snippet))
    assert len(problems) == 1, problems
    named_quote, named_print = problems[0].split(" but the command printed ")
    assert named_quote == f"tutorial quotes {stale!r}"
    assert named_print.startswith("'" + quoted.split(" total ")[0])


def test_tutorial_run_names_a_changed_trace_line(tmp_path, docs_check):
    """The tutorial's whole msn-unfenced/T0 quote, one counterexample
    trace line changed (the store its last load read), fails the run on
    that line alone."""
    quoted = next(
        block
        for language, block in docs_check.tutorial_blocks()
        if language == "text"
        and block[0].startswith("[FAIL] msn-unfenced / T0 on relaxed:")
    )
    last_load = max(
        index for index, line in enumerate(quoted) if " <- #" in line
    )
    line = quoted[last_load]
    source = int(line.rsplit("#", 1)[1])
    changed = line.replace(f"<- #{source}", f"<- #{source - 1}")
    snippet = tmp_path / "tutorial.md"
    snippet.write_text(
        "```sh\n"
        "checkfence check --impl msn-unfenced --test T0 --model relaxed"
        "  # exit: 1\n"
        "```\n\n"
        "```text\n" + "\n".join(
            changed if index == last_load else text
            for index, text in enumerate(quoted)
        ) + "\n```\n"
    )
    problems = docs_check.run_tutorial(str(snippet))
    assert len(problems) == 1, problems
    assert problems[0].startswith(f"tutorial quotes {changed.strip()!r}")


def test_tutorial_run_keeps_the_callers_store(
    tmp_path, docs_check, monkeypatch
):
    """The tutorial runs under a cache directory of its own: its ``cache``
    commands see an empty store, and its ``cache --clear`` leaves the
    store of the directory the caller names whole."""
    from repro.core.store import VerdictStore

    cache = tmp_path / "cache"
    monkeypatch.setenv("CHECKFENCE_CACHE_DIR", str(cache))
    VerdictStore().put("a-cell", "verdict", {"passed": True})
    snippet = tmp_path / "tutorial.md"
    snippet.write_text(
        "```sh\ncheckfence cache\ncheckfence cache --clear\n```\n\n"
        "```text\ncells:  0 (store not created yet)\n```\n"
    )
    assert docs_check.run_tutorial(str(snippet)) == []
    assert VerdictStore().stats()["cells"] == 1


def _environment_tree(root, code: str, rows: list[str]) -> None:
    package = root / "src" / "repro"
    package.mkdir(parents=True)
    (package / "knobs.py").write_text(code)
    (root / "docs").mkdir()
    (root / "docs" / "architecture.md").write_text(
        "## Environment variables\n\n| variable | effect |\n| --- | --- |\n"
        + "".join(f"| `{name}` | an effect |\n" for name in rows)
        + "\n## Running things\n\n| `CHECKFENCE_OTHER_TABLE` | not it |\n"
    )


def test_environment_table_names_every_variable_read(
    tmp_path, docs_check, monkeypatch
):
    _environment_tree(
        tmp_path,
        'import os\nos.environ.get("CHECKFENCE_SOLVER")\n'
        'FAULT_ENV = "CHECKFENCE_FAULT"\n'
        '"""``CHECKFENCE_IN_PROSE`` is not a read."""\n',
        ["CHECKFENCE_SOLVER"],
    )
    monkeypatch.setattr(docs_check, "REPO_ROOT", str(tmp_path))
    assert docs_check.check_environment_table() == [
        "docs/architecture.md: environment table lacks `CHECKFENCE_FAULT`, "
        "which src/repro reads"
    ]


def test_environment_table_lists_no_variable_unread(
    tmp_path, docs_check, monkeypatch
):
    _environment_tree(
        tmp_path,
        'import os\nos.environ.get("CHECKFENCE_SOLVER")\n',
        ["CHECKFENCE_SOLVER", "CHECKFENCE_SIMPLIFY"],
    )
    monkeypatch.setattr(docs_check, "REPO_ROOT", str(tmp_path))
    assert docs_check.check_environment_table() == [
        "docs/architecture.md: environment table lists "
        "`CHECKFENCE_SIMPLIFY`, which no code under src/repro reads"
    ]
