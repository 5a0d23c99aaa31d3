import dataclasses

import numpy as np
import pytest

from lagkit.errors import InputError
from lagkit.families import HilfParams, degenerate_example, hilf_chart, sphere_chart
from lagkit.verifier import (
    Tolerances,
    degenerate_model_report,
    run_suite,
    two_curvature_check,
)
from tests.conftest import mesh


@pytest.fixture(scope="module")
def hilf_report(hilf3, grid3):
    return run_suite(hilf3, grid3)


def test_explicit_family_suite_passes(hilf_report):
    assert hilf_report.passed
    by_name = {c.name: c for c in hilf_report.checks}
    assert by_name["rho_square_bound"].status == "skip"
    assert "vacuous" in by_name["rho_square_bound"].note
    assert hilf_report.classification["is_isotropic"]
    assert hilf_report.classification["is_isoparametric"]


def test_every_check_has_anchor(hilf_report):
    for check in hilf_report.checks:
        assert check.anchor


def test_l_variant_named(hilf_report):
    assert hilf_report.l_variant["matched"] == "closed_a"
    assert hilf_report.l_variant["deviation_a"] <= 1e-3
    assert hilf_report.l_variant["deviation_b"] > 1e-3


def test_torus_suite(torus21, torus_points):
    report = run_suite(torus21, torus_points)
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["two_curvature_constants"].status == "pass"
    assert by_name["covariant_b_square"].status == "skip"
    assert not report.classification["is_isotropic"]
    # the closed-form Laguerre form cancels identically on a torus of
    # revolution, so it is isoparametric (verified two independent ways)
    assert report.classification["is_isoparametric"]


def test_sphere_reports_only_umbilic_errors():
    report = run_suite(sphere_chart(1.0), mesh(2, 0.15, 3))
    assert len(report.errors) == 9
    assert all(err["reason"] == "umbilic point" for err in report.errors)
    assert not report.checks
    assert not report.passed


def test_two_curvature_targets(torus21, torus_points):
    result = two_curvature_check(torus21, torus_points)
    assert result["residual"] <= 1e-6
    assert result["constancy"] <= 1e-6
    target = 0.7071067811865476
    assert np.allclose(sorted(np.abs(result["targets"])), [target, target])


def test_two_curvature_precondition(hilf3, grid3):
    with pytest.raises(InputError):
        two_curvature_check(hilf3, grid3[:4])


def test_degenerate_model_report():
    deg = degenerate_example(HilfParams(a=(1.0, 2.0)))
    report = degenerate_model_report(deg, mesh(2, 0.4, 5))
    assert report.passed
    names = [c.name for c in report.checks]
    assert "rho_square_constant" in names
    assert report.warnings


def test_reports_are_deterministic(hilf3, grid3):
    r1 = run_suite(hilf3, grid3)
    r2 = run_suite(hilf3, grid3)
    assert r1.to_dict() == r2.to_dict()


def test_tolerances_must_be_positive():
    with pytest.raises(ValueError):
        Tolerances(frame_relations=0.0)


def test_skipped_checks_are_not_failures(torus21, torus_points):
    report = run_suite(torus21, torus_points)
    skipped = [c for c in report.checks if c.status == "skip"]
    assert skipped
    assert report.passed


def test_run_suite_computes_metric_curvature_once(hilf3, monkeypatch):
    # One stencil cloud per grid point feeds the invariants, the metric
    # curvature and the two-curvature check: 1 + 12 + 60 + 130 chart points
    # at n=3, plus one for the regularity pass.
    import lagkit.charts
    import lagkit.frames
    import lagkit.verifier

    points = []
    original = lagkit.charts.jet_arrays

    def counted(chart, U):
        points.append(np.atleast_2d(U).shape[0])
        return original(chart, U)

    for module in (lagkit.charts, lagkit.frames, lagkit.verifier):
        monkeypatch.setattr(module, "jet_arrays", counted)
    grid = mesh(3, 0.4, 5)
    report = run_suite(hilf3, grid)
    assert report.passed
    by_name = {c.name: c for c in report.checks}
    assert by_name["isoparametric_curvature_sum"].status == "pass"
    assert sum(points) <= 204 * len(grid)


def test_degenerate_rho_square_constant_can_fail():
    deg = degenerate_example(HilfParams(a=(1.0, 2.0)))

    def bent_normal_jet(U):
        # scales II by (1 + u_1 / 2), so the radii and rho^2 vary
        return deg.normal_jet(U) * (1.0 + 0.5 * np.atleast_2d(U)[:, :1, None])

    broken = dataclasses.replace(deg, normal_jet=bent_normal_jet)
    report = degenerate_model_report(broken, mesh(2, 0.4, 5))
    by_name = {c.name: c for c in report.checks}
    assert by_name["rho_square_constant"].status == "fail"
    assert not report.passed


@pytest.mark.parametrize(
    "a, multiplicities",
    [((1.0, 2.0), (2, 1)), ((1.0, 2.0), (1, 2)), ((1.0, 2.0, 3.0), (1, 2, 1))],
    ids=["2-1", "1-2", "1-2-1"],
)
def test_repeated_curvatures_pass(a, multiplicities):
    # Inside a repeated eigenspace eigh picks the frame arbitrarily; the
    # checks on B must not depend on that choice.
    chart = hilf_chart(HilfParams(a=a, multiplicities=multiplicities))
    report = run_suite(chart, mesh(chart.n, 0.3, 3))
    assert report.passed, [(c.name, c.residual) for c in report.checks if c.status == "fail"]
    by_name = {c.name: c for c in report.checks}
    for name in ("covariant_b_contraction", "covariant_b_square", "parallel_b_iff_lambda_zero",
                 "isoparametric_curvature_sum"):
        assert by_name[name].status == "pass"


def test_isotropic_non_isoparametric_skips_name_the_hypothesis(hilf3, grid3, monkeypatch):
    import lagkit.verifier

    classify_analysis = lagkit.verifier.classify_analysis

    def not_isoparametric(a, tol):
        return dataclasses.replace(classify_analysis(a, tol), is_isoparametric=False)

    monkeypatch.setattr(lagkit.verifier, "classify_analysis", not_isoparametric)
    report = run_suite(hilf3, grid3)
    assert report.classification["is_isotropic"]
    by_name = {c.name: c for c in report.checks}
    for name in ("isotropic_isoparametric_lambda_zero", "isoparametric_curvature_sum"):
        assert by_name[name].status == "skip"
        assert by_name[name].note == "requires isoparametric input"
