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


def test_quoted_verdict_lines_mask_the_wall_clock(docs_check):
    quoted = ["[FAIL] q / T0 on tso: 3 accesses, 10 clauses, total 0.02s",
              "counterexample lines are not verdicts"]
    printed = "[PASS] q / T1 on sc: 2 accesses, 5 clauses, total 0.01s\n" \
        "[FAIL] q / T0 on tso: 3 accesses, 10 clauses, total 1.50s\n"
    assert docs_check.stale_verdict_lines(quoted, printed) == []
    stale = ["[FAIL] q / T0 on tso: 3 accesses, 11 clauses, total 0.02s"]
    assert docs_check.stale_verdict_lines(stale, printed) == [
        f"tutorial quotes {stale[0]!r} but the command printed "
        "'[PASS] q / T1 on sc: 2 accesses, 5 clauses, total 0.01s'"
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
