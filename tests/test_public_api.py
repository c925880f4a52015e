"""Every name the package exports is documented or used.

A name in ``statichedge.__all__`` must be named in ``README.md`` or
referenced by code (a string or a docstring does not count) in one of:

* the package itself, outside ``__init__.py`` and outside the name's own
  definition;
* ``demos/``, ``scripts/`` or ``bench/``.

An export that none of these reads is code the library never calls:
delete it, or name it in the README as public API.
"""
import ast
import re
from pathlib import Path

import pytest

import statichedge

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "statichedge"


class _References(ast.NodeVisitor):
    """The names a module's code reads, each outside its own definition."""

    def __init__(self):
        self.names, self._defining = set(), []

    def _definition(self, node):
        self._defining.append(node.name)
        self.generic_visit(node)
        self._defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _read(self, name):
        if name not in self._defining:
            self.names.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._read(node.id)

    def visit_Attribute(self, node):
        self._read(node.attr)
        self.generic_visit(node)


def _referenced_names():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    for folder in ("demos", "scripts", "bench"):
        files += sorted((ROOT / folder).rglob("*.py"))
    refs = _References()
    for path in files:
        refs.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    return refs.names


_README = (ROOT / "README.md").read_text(encoding="utf-8")
_REFERENCED = _referenced_names()


@pytest.mark.parametrize("name", statichedge.__all__)
def test_public_name_is_documented_or_used(name):
    in_readme = re.search(rf"(?<!\w){re.escape(name)}(?!\w)", _README) is not None
    assert in_readme or name in _REFERENCED, (
        f"statichedge.{name} is exported, but neither README.md names it nor any "
        "code outside its definition reads it")
