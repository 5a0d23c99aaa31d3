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

# Targets that ``perfbench/spans.py`` still lists although lagkit has
# dropped them: the finite-difference module went when every chart
# became closed-form, and the raising lift and the wrappers of ``analyze``
# went when ``analyze`` became the one way into the pipeline, and the
# frame-curvature alias and the frame connection left ``fields`` (the
# connection is now a helper of the tests), as did the Laplace-Beltrami
# operator, whose one use is the trace of a Hessian ``analyze`` forms.
# The benchmark's list changes with the benchmark.
REMOVED = (
    ("fd", "grad_field"), ("fd", "hess_field"),
    ("frames", "lift_arrays"), ("invariants", "classify"),
    ("invariants", "metric_geometry"), ("verifier", "two_curvature_check"),
    ("fields", "frame_riemann"), ("fields", "frame_connection"), ("fields", "laplacian"),
)


def test_targets_listed():
    assert ("charts", "jet_arrays") in TARGETS and ("invariants", "analyze") in TARGETS


KEPT = [t for t in TARGETS if t not in REMOVED]


@pytest.mark.parametrize("home,name", KEPT, ids=[f"{h}.{n}" for h, n in KEPT])
def test_traced_function_resolves(home, name):
    module = importlib.import_module("lagkit." + home)
    assert callable(getattr(module, name, None)), f"lagkit.{home}.{name} is gone"


@pytest.mark.parametrize("home,name", REMOVED, ids=[f"{h}.{n}" for h, n in REMOVED])
def test_removed_target_is_absent(home, name):
    # Once the benchmark drops a target, its entry here must go too.
    assert (home, name) in TARGETS, f"{home}.{name} left TARGETS; drop it from REMOVED"
    try:
        module = importlib.import_module("lagkit." + home)
    except ModuleNotFoundError:
        return
    assert not hasattr(module, name), f"lagkit.{home}.{name} is back; drop it from REMOVED"
