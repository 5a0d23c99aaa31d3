"""Every name a lagkit module exports in ``__all__`` must resolve."""

import importlib
import pkgutil
from dataclasses import fields

import pytest

import lagkit
from lagkit.charts import Chart
from lagkit.invariants import Analysis
from lagkit.spaces import SignatureSpace

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(lagkit.__path__, "lagkit.")
)


def test_every_module_found():
    assert "lagkit.verifier" in MODULES and "lagkit.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"duplicate names in {name}.__all__"
    missing = [item for item in exported if not hasattr(module, item)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


# Names that served only tests: arrays and ``SignatureSpace.dot`` replace them.
GONE = {
    "lagkit": ("SpaceVector", "apply_transform", "inner_product", "is_lightlike", "nu_vector",
               "MetricField", "frame_riemann", "frame_connection"),
    "lagkit.spaces": ("SpaceVector", "apply_transform", "inner_product", "is_lightlike",
                      "nu_vector"),
    "lagkit.fields": ("MetricField", "frame_riemann", "frame_connection"),
    # Nothing read these: ``validate_constants`` returns its failures, and
    # ``Taylor.partials`` reads the grads' table.
    "lagkit.construction": ("ValidationReport",),
    "lagkit.taylor": ("_partial_table",),
}


@pytest.mark.parametrize("name", sorted(GONE))
def test_test_only_names_are_gone(name):
    module = importlib.import_module(name)
    assert [item for item in GONE[name] if hasattr(module, item)] == []


def test_analysis_holds_the_frame_curvature_as_an_array():
    names = {f.name for f in fields(Analysis)}
    assert "riemann_frame" in names and "metric" not in names
    assert not hasattr(SignatureSpace, "vector") and not hasattr(SignatureSpace, "signature_matrix")


def test_unread_fields_are_gone():
    assert "chart" not in {f.name for f in fields(Analysis)}
    assert "flip_normal" not in {f.name for f in fields(Chart)}
