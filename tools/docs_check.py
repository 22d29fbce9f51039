"""Documentation checks: markdown links, code names and tutorial smoke runs.

Three modes, combinable (the CI docs job runs all three):

* ``--links`` — every inline markdown link in the repo's ``*.md`` files
  that points inside the repo must resolve to an existing file or
  directory (fragments are stripped; external ``http(s)``/``mailto``
  links and pure-anchor links are skipped).
* ``--symbols`` — the code names README.md and ``docs/*.md`` quote in
  backticks must exist: a dotted ``repro.…`` name must import and
  resolve, and a ``Class.attr`` (optionally followed by a call) whose
  class is defined under ``src/repro`` must name a method, property,
  field or attribute of that class or of a base class.
* ``--tutorial`` — executes the fenced ``sh`` and ``python`` code blocks
  of ``docs/tutorial.md`` as a smoke test.  In ``sh`` blocks each line is
  one command; a leading ``checkfence`` is translated to ``python -m
  repro.cli`` with ``PYTHONPATH=src``, and a trailing ``# exit: N``
  comment declares the expected exit code (default 0).  ``python`` blocks
  run whole, also against the in-tree package.  A ``text`` block right
  after an ``sh`` block quotes that block's output: each of its
  ``[PASS]`` / ``[FAIL]`` verdict lines must be one the commands printed,
  with the ``total …s`` wall-clock figure masked, so a quoted clause
  count cannot go stale.

Exits nonzero, listing every failure, when anything is broken.  Run from
anywhere; paths resolve relative to the repo root (the parent of this
file's directory).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import textwrap

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Inline markdown links: [text](target).  Good enough for this repo's
#: docs; reference-style links are not used.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"^```(\w*)\s*$")
_EXIT_RE = re.compile(r"^(?P<cmd>.*?)(?:\s*#\s*exit:\s*(?P<code>\d+))?\s*$")
#: A check's verdict line, and the wall-clock figure masked in it.
_VERDICT_RE = re.compile(r"^\[(?:PASS|FAIL)\] ")
_TOTAL_RE = re.compile(r"total \d+(?:\.\d+)?s")

#: A backticked span, and the two code-name shapes ``--symbols`` checks:
#: ``repro.a.b`` and ``Class.attr``, each optionally followed by a call.
_CODE_RE = re.compile(r"`([^`\n]+)`")
_DOTTED_RE = re.compile(r"^(repro(?:\.\w+)+)(?:\(.*\))?$")
_CLASS_ATTR_RE = re.compile(r"^([A-Z]\w*)\.(\w+)(?:\(.*\))?$")

#: Directories never scanned for markdown files.
_SKIP_DIRS = {".git", ".claude", ".pytest_cache", ".hypothesis", ".benchmarks",
              "__pycache__", "node_modules"}


def markdown_files() -> list[str]:
    found = []
    for dirpath, dirnames, filenames in os.walk(REPO_ROOT):
        dirnames[:] = [d for d in dirnames if d not in _SKIP_DIRS]
        for filename in filenames:
            if filename.endswith(".md"):
                found.append(os.path.join(dirpath, filename))
    return sorted(found)


def check_links() -> list[str]:
    """Return a list of "file: broken target" problem strings."""
    problems = []
    for path in markdown_files():
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        for target in _LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = os.path.normpath(
                os.path.join(os.path.dirname(path), target.split("#", 1)[0])
            )
            if not os.path.exists(resolved):
                rel = os.path.relpath(path, REPO_ROOT)
                problems.append(f"{rel}: broken link -> {target}")
    return problems


def _instance_attributes(cls) -> set[str]:
    """Names assigned as ``self.<name>`` anywhere in the class body."""
    try:
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls)))
    except (OSError, TypeError, SyntaxError):
        return set()
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    }


def _has_attribute(cls, name: str) -> bool:
    """A method, property, field or attribute of ``cls`` or a base."""
    if hasattr(cls, name):
        return True
    if dataclasses.is_dataclass(cls) and name in {
        f.name for f in dataclasses.fields(cls)
    }:
        return True
    return any(
        name in getattr(base, "__annotations__", {})
        or name in _instance_attributes(base)
        for base in cls.__mro__
    )


def _repro_classes() -> dict[str, list[type]]:
    """Every class defined under ``src/repro``, by name."""
    src = os.path.join(REPO_ROOT, "src")
    if os.path.isdir(src) and src not in sys.path:
        sys.path.insert(0, src)
    import repro

    classes: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if inspect.isclass(value) and value.__module__ == info.name:
                classes.setdefault(name, []).append(value)
    return classes


def _resolve_dotted(name: str) -> bool:
    """Import the longest module prefix of ``name``, then look the rest
    up attribute by attribute."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            if inspect.isclass(value):
                if not _has_attribute(value, part):
                    return False
                value = getattr(value, part, None)
            elif hasattr(value, part):
                value = getattr(value, part)
            else:
                return False
        return True
    return False


def check_symbols() -> list[str]:
    """Return a "file: unknown name" problem string per backticked code
    name in README.md and docs/*.md that does not exist in the code."""
    classes = _repro_classes()
    paths = [os.path.join(REPO_ROOT, "README.md")]
    docs = os.path.join(REPO_ROOT, "docs")
    if os.path.isdir(docs):
        paths += sorted(
            os.path.join(docs, name) for name in os.listdir(docs)
            if name.endswith(".md")
        )
    problems = []
    for path in paths:
        if not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        # Fenced blocks are code the tutorial run covers, not prose.
        fenced = False
        prose = []
        for line in lines:
            if _FENCE_RE.match(line):
                fenced = not fenced
            elif not fenced:
                prose.append(line)
        for span in _CODE_RE.findall("\n".join(prose)):
            span = span.strip()
            dotted = _DOTTED_RE.match(span)
            class_attr = _CLASS_ATTR_RE.match(span)
            if dotted:
                ok = _resolve_dotted(dotted.group(1))
            elif class_attr and class_attr.group(1) in classes:
                ok = any(
                    _has_attribute(cls, class_attr.group(2))
                    for cls in classes[class_attr.group(1)]
                )
            else:
                continue
            if not ok:
                rel = os.path.relpath(path, REPO_ROOT)
                problems.append(f"{rel}: unknown name `{span}`")
    return problems


def tutorial_blocks(path: str | None = None) -> list[tuple[str, list[str]]]:
    """The fenced code blocks of the tutorial, in order, as
    ``(language, lines)``."""
    if path is None:
        path = os.path.join(REPO_ROOT, "docs", "tutorial.md")
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    blocks: list[tuple[str, list[str]]] = []
    language = None
    for line in lines:
        fence = _FENCE_RE.match(line)
        if fence is None:
            if language is not None:
                blocks[-1][1].append(line)
        elif language is None:
            language = fence.group(1)
            blocks.append((language, []))
        else:  # closing fence
            language = None
    return blocks


def block_commands(
    language: str, block: list[str]
) -> list[tuple[str, list[str], int]]:
    """``(kind, command, expected_exit)`` tuples of one ``sh`` or
    ``python`` block; ``command`` is an argv list."""
    if language == "python":
        return [("python", [sys.executable, "-c", "\n".join(block)], 0)]
    if language != "sh":
        return []
    commands = []
    for raw in block:
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        match = _EXIT_RE.match(raw)
        command, code = match.group("cmd"), match.group("code")
        if command.startswith("checkfence"):
            command = command.replace(
                "checkfence", f"{sys.executable} -m repro.cli", 1
            )
        commands.append(
            ("sh", shlex.split(command), int(code) if code else 0)
        )
    return commands


def tutorial_commands(path: str | None = None) -> list[tuple[str, list[str], int]]:
    """Every block's commands (:func:`block_commands`), in order."""
    return [
        command
        for language, block in tutorial_blocks(path)
        for command in block_commands(language, block)
    ]


def stale_verdict_lines(quoted: list[str], stdout: str) -> list[str]:
    """Problem strings for the verdict lines of a ``text`` block that
    ``stdout`` did not print, the ``total …s`` figure masked on both
    sides.  A block may quote some of the output only; a stale line is
    named together with the verdict line printed at its position."""
    def verdicts(lines):
        return [
            line.strip() for line in lines
            if _VERDICT_RE.match(line.strip())
        ]

    def masked(line):
        return _TOTAL_RE.sub("total …s", line)

    wanted, printed = verdicts(quoted), verdicts(stdout.splitlines())
    known = {masked(line) for line in printed}
    return [
        f"tutorial quotes {line!r} but the command printed "
        f"{printed[i] if i < len(printed) else '(no verdict line)'!r}"
        for i, line in enumerate(wanted)
        if masked(line) not in known
    ]


def run_tutorial(path: str | None = None) -> list[str]:
    """Run every tutorial command and compare each quoted verdict line
    with the output it quotes; return problem strings."""
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    problems = []
    blocks = tutorial_blocks(path)
    if not any(block_commands(*block) for block in blocks):
        return ["docs/tutorial.md: no runnable code blocks found"]
    stdout = None  # of the sh block just before, for a quoting text block
    for language, block in blocks:
        if language == "text" and stdout is not None:
            problems += stale_verdict_lines(block, stdout)
        outputs = []
        for kind, argv, expected in block_commands(language, block):
            shown = " ".join(argv[:6]) + (" ..." if len(argv) > 6 else "")
            print(f"[tutorial:{kind}] {shown}", flush=True)
            proc = subprocess.run(
                argv, cwd=REPO_ROOT, env=env, capture_output=True, text=True
            )
            outputs.append(proc.stdout)
            if proc.returncode != expected:
                problems.append(
                    f"tutorial command {shown!r} exited {proc.returncode} "
                    f"(expected {expected}):\n{proc.stderr.strip()[-2000:]}"
                )
        stdout = "".join(outputs) if language == "sh" else None
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--links", action="store_true",
                        help="check intra-repo markdown links resolve")
    parser.add_argument("--symbols", action="store_true",
                        help="check backticked code names in README.md and "
                        "docs/*.md exist")
    parser.add_argument("--tutorial", action="store_true",
                        help="run docs/tutorial.md code blocks as a smoke test")
    args = parser.parse_args(argv)
    if not (args.links or args.symbols or args.tutorial):
        parser.error(
            "nothing to do: pass --links, --symbols and/or --tutorial"
        )
    problems = []
    if args.links:
        problems += check_links()
    if args.symbols:
        problems += check_symbols()
    if args.tutorial:
        problems += run_tutorial()
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not problems:
        print("docs checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
