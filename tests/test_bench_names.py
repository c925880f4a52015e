"""The benchmark tracer wraps functions by name; every name it lists must
exist, or a traced run silently loses that layer's metrics."""
import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced_names():
    """(module, function) for every entry of the tracer's ``TARGETS``."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return [(entry.elts[1].value, fn.value)
                    for entry in node.value.elts for fn in entry.elts[2].elts]
    raise AssertionError("TARGETS not found in bench/tracer.py")


@pytest.mark.parametrize("module, name", _traced_names())
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"statichedge.{module}"), name, None))
