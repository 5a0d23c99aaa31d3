"""Every function the benchmark traces by name must exist in lagkit.

``perfbench/spans.py`` wraps each ``(module, function)`` of ``TARGETS``
and reports a function it cannot find only as "not traced", so a rename
would silently drop that layer's metrics.  This test reads the list and
changes nothing under ``perfbench/``.
"""

import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_targets():
    """The literal ``TARGETS`` tuple, parsed from the source without importing it."""
    tree = ast.parse(SPANS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


TARGETS = traced_targets()


def test_targets_listed():
    assert ("charts", "jet_arrays") in TARGETS and ("frames", "lift_arrays") in TARGETS


@pytest.mark.parametrize("home,name", TARGETS, ids=[f"{h}.{n}" for h, n in TARGETS])
def test_traced_function_resolves(home, name):
    module = importlib.import_module("lagkit." + home)
    assert callable(getattr(module, name, None)), f"lagkit.{home}.{name} is gone"
