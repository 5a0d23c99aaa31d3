"""Every name a lagkit module exports in ``__all__`` must resolve."""

import importlib
import inspect
import pkgutil
from dataclasses import fields

import pytest

import lagkit
from lagkit import construction
from lagkit.charts import Chart, jet_arrays, principal_arrays
from lagkit.construction import ConstructedMaps, ConstructionConstants, frobenius_report
from lagkit.families import DegenerateChart
from lagkit.invariants import Analysis, ClassificationResult, classify_analysis
from lagkit.taylor import Taylor
from lagkit.verifier import (
    Tolerances,
    construct_suite,
    degenerate_model_report,
    run_suite,
    tau_suite,
)

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


# Deleted names.  Arrays and ``spaces.dot`` replace those that served only
# tests, and a signature is its +-1 vector, so ``SignatureSpace`` and its two
# constructors went; nothing read ``ValidationReport`` (``validate_constants``
# returns its failures) or ``_partial_table`` (``Taylor.partials`` reads the
# grads' table); ``build_immersion`` holds the two map builders and validates
# once; and ``CONSTRUCT_CHECKS``, the one table that read ``_keyed``, writes
# its rows out.  ``analyze`` reads the III Laplacian off the Hessian it
# forms, so ``laplacian`` went; the report holds no numpy scalar, so
# ``_json_default`` went; and ``is_finite_number`` checks a parameter
# before the torus reads it, so ``_number`` and ``_is_real`` went.
# ``families.accepted`` checks the keys and kinds of every JSON object the
# CLI reads, so ``_accepted``, ``_numbers``, ``_tolerances`` and
# ``_build_surface`` went, and ``_load_json`` reads both kinds of file.
# The tolerances are fixed, so the CLI checks no ``_TOLERANCES``; and
# sum b = 0 and sum b^2 = 1 fix the two-curvature constants, so their row's
# ``_two_curvature_constants`` went.  Every chart brings its analytic
# normal, so ``cross_normal`` went.  The regularity screen decides every
# point of a chart, which has no domain, so ``MarginError`` went.
GONE = {
    "lagkit": ("SpaceVector", "apply_transform", "inner_product", "is_lightlike", "nu_vector",
               "MetricField", "frame_riemann", "frame_connection",
               "build_position", "build_normal_map", "SignatureSpace", "laguerre_space",
               "minkowski_space", "curvature_line_check", "MarginError"),
    "lagkit.spaces": ("SpaceVector", "apply_transform", "inner_product", "is_lightlike",
                      "nu_vector", "SignatureSpace", "laguerre_space", "minkowski_space",
                      "random_lg_rotation"),
    "lagkit.fields": ("MetricField", "frame_riemann", "frame_connection", "laplacian"),
    "lagkit.cli": ("_json_default", "_is_real", "_build_surface", "_tolerances",
                   "_load_config", "_TOLERANCES"),
    "lagkit.families": ("_number", "_accepted", "sphere_chart"),
    "lagkit.construction": ("ValidationReport", "build_position", "build_normal_map",
                            "_require_valid", "_numbers"),
    "lagkit.taylor": ("_partial_table",),
    "lagkit.charts": ("cross_normal", "curvature_line_check"),
    "lagkit.verifier": ("_keyed", "_two_curvature_constants"),
    "lagkit.errors": ("MarginError",),
}


@pytest.mark.parametrize("name", sorted(GONE))
def test_test_only_names_are_gone(name):
    module = importlib.import_module(name)
    assert [item for item in GONE[name] if hasattr(module, item)] == []


def test_each_value_is_formed_once():
    # principal_arrays reads the inverse factor of forms_arrays and factors
    # nothing; a jet's rows are plain indexing; the closed forms of rho(v)
    # and r(v) are no maps; the jet has the one degree analyze reads.
    assert list(inspect.signature(principal_arrays).parameters) == ["W", "II"]
    assert list(inspect.signature(jet_arrays).parameters) == ["chart", "U"]
    assert not hasattr(Taylor, "take")
    assert {"rho", "mean_radius"}.isdisjoint(f.name for f in fields(ConstructedMaps))


def test_analysis_holds_the_frame_curvature_as_an_array():
    names = {f.name for f in fields(Analysis)}
    assert "riemann_frame" in names and "metric" not in names
    # The signature is read off the grid on demand, as r_i and b are.
    assert "space" not in names and not hasattr(Analysis, "space")
    assert isinstance(Analysis.__dict__["signs"], property)


def test_unread_fields_are_gone():
    assert {"chart", "lift"}.isdisjoint(f.name for f in fields(Analysis))
    assert {"flip_normal", "domain"}.isdisjoint(f.name for f in fields(Chart))
    # analyze builds the lift of its regular rows itself: no second layer.
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("lagkit.frames")


def test_one_map_each_and_one_constructor():
    # The model keeps its two maps; the suites read them on Taylor seeds.
    assert [f.name for f in fields(DegenerateChart)] == ["n", "x_map", "xi_map", "params"]
    gone = ("constraint_residuals", "fundamental_forms", "CONSTRAINTS")
    assert [name for name in gone if hasattr(DegenerateChart, name)] == []
    assert not hasattr(ConstructionConstants, "simple")


def test_verifier_holds_every_residual():
    # Analysis holds fields; frobenius_report reads no Analysis and needs
    # no check that one belongs to its grid.
    assert not hasattr(Analysis, "structure_residual")
    assert list(inspect.signature(frobenius_report).parameters) == ["maps", "grid"]
    assert not hasattr(construction, "InputError")


def test_each_result_is_stated_once():
    # The check rows eigenvalue_sign and isotropic_isoparametric_lambda_zero
    # are the verdicts of lambda >= 0 and lambda = 0; construct reports the
    # vbar grid it analyses, and config_echo carries the half-width.  The
    # b_trace_zero and b_square_one rows fix the two-curvature constants.
    assert {"prop2_sign_ok", "prop7_consistent"}.isdisjoint(
        f.name for f in fields(ClassificationResult))
    assert list(inspect.signature(construct_suite).parameters) == ["constants", "grid"]
    assert not hasattr(Tolerances, "two_curvature")


@pytest.mark.parametrize("entry, parameters", [
    (run_suite, ["chart", "grid"]),
    (construct_suite, ["constants", "grid"]),
    (degenerate_model_report, ["deg", "grid"]),
    (tau_suite, ["deg", "grid"]),
    (classify_analysis, ["a"]),
], ids=lambda entry: getattr(entry, "__name__", ""))
def test_no_entry_takes_a_tolerance(entry, parameters):
    # Tolerances is the one source of every verdict: no caller passes one.
    assert list(inspect.signature(entry).parameters) == parameters
