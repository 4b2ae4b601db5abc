"""Statement reach: the src/ statements that tier-1 and the corpus never run.

Usage:  python tests/reach.py

A `sys.settrace` tracer records every line executed in src/planebranch
while tier-1 runs in this process (pytest, `-p no:cacheprovider
--hypothesis-seed=0`, its report kept out of the output) and then every
chunk of the differential corpus.  Each statement of src/ that was never
executed is printed as file:line and its first line of text, followed by
a count.  A simple statement counts as executed when a line event falls on
any of its lines, a compound one when one falls on its header or a
statement inside it was executed (`while True:` and `try:` need not report
a line event); docstrings compile to no code and are not counted.  Code
run in a subprocess, such as the one CLI test that starts the interpreter,
is not seen.

Reports only: exit 0 whatever it finds.  Standard library and pytest only;
the file is not named test_*, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "planebranch"
PREFIX = str(PACKAGE) + os.sep

# filename -> line numbers executed there
HITS: dict = defaultdict(set)


def _local(frame, event, arg):
    if event == "line":
        HITS[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    # only the package's frames get the line tracer
    return _local if frame.f_code.co_filename.startswith(PREFIX) else None


def _is_docstring(node: ast.stmt, parent) -> bool:
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _children(node) -> list:
    """The statements directly inside a compound statement, handlers' included."""
    out = []
    for field in ("body", "orelse", "finalbody"):
        out += [s for s in getattr(node, field, []) if isinstance(s, ast.stmt)]
    for handler in getattr(node, "handlers", []):
        out += handler.body
    return out


def _span(node: ast.stmt) -> range:
    """The lines whose execution shows the statement ran: all of a simple
    statement, the header of a compound one, decorators included."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if body and isinstance(body[0], ast.stmt):
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def unreached(path: Path, hits: set) -> list:
    """(line, text) of each statement of the file at path never executed."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    missed = []

    def visit(node, parent) -> bool:
        """Whether node ran; records the statements inside it that did not."""
        kids = [visit(child, node) for child in _children(node)]
        ran = any(line in hits for line in _span(node)) or any(kids)
        if not ran and not _is_docstring(node, parent):
            missed.append((node.lineno, lines[node.lineno - 1].strip()))
        return ran

    module = ast.parse(text)
    for node in module.body:
        visit(node, module)
    return sorted(missed)


def _load_corpus():
    spec = importlib.util.spec_from_file_location(
        "differential_run", ROOT / "tests" / "differential" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import pytest

    start = time.monotonic()
    sys.settrace(_global)
    report = io.StringIO()
    try:
        with contextlib.redirect_stdout(report):
            status = pytest.main(
                ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")]
            )
        corpus = _load_corpus()
        differ = corpus.check(range(corpus.CHUNKS))
    finally:
        sys.settrace(None)
    tail = [line for line in report.getvalue().splitlines() if line.strip()]
    print(f"tier-1 (exit {int(status)}): {tail[-1] if tail else ''}")
    print(f"differential corpus: {corpus.CHUNKS - len(differ)} of {corpus.CHUNKS} chunks match")
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, text in unreached(path, HITS[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {text}")
            total += 1
    print(f"{total} statements of src/ never executed, in {time.monotonic() - start:.0f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
