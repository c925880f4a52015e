"""List the statements of ``src/statichedge`` that no test executes.

Runs pytest in this process with a line tracer on every frame whose code
lives under ``<root>/src/statichedge`` (``sys.settrace`` for the main
thread, ``threading.settrace`` for the pool threads the pricing kernels
start), then prints one line per statement that never ran::

    spanning:416  raise

Docstrings, ``def``/``class`` lines, imports and ``try:`` headers are not
listed.  A statement counts as run when any line of it ran (for a compound
statement, any line of its header).  Code run in a subprocess, such as
``python -m statichedge``, is not seen.  Arguments go to pytest unchanged;
the default is ``-q tests``::

    python scripts/untested_lines.py                         # the whole suite
    python scripts/untested_lines.py -q tests/test_cli.py    # one file

Only the standard library and pytest are used.  The exit code is pytest's.
On a 2-CPU machine the traced suite took 63 s, against 49 s untraced.
"""
from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "statichedge"

# Statements that hold no code of their own.
_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Try, ast.Global, ast.Nonlocal)


def _statements(tree):
    """Yield ``(first line, lines that count as running it)`` for every
    statement of ``tree`` that holds code."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or isinstance(node, _SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue  # a docstring
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        yield node.lineno, range(node.lineno, max(end, node.lineno) + 1)


def main(argv=None) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    executed = {}  # file name -> set of line numbers

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        executed.setdefault(name, set())
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(list(argv) if argv else ["-q", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    ran_in = {}
    for name, lines in executed.items():
        ran_in.setdefault(Path(name).resolve(), set()).update(lines)
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        ran = ran_in.get(path, set())
        text = source.splitlines()
        for first, span in sorted(_statements(ast.parse(source))):
            if ran.isdisjoint(span):
                print(f"{path.stem}:{first}  {text[first - 1].strip()}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
