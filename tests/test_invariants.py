from fractions import Fraction

import numpy as np
import pytest

from lagkit import charts, fd, frames
from lagkit.errors import InputError, UmbilicError
from lagkit.families import sphere_chart
from lagkit.fields import christoffels, frame_connection
from lagkit.frames import frame_coefficients, lift_arrays
from lagkit.invariants import (
    DEFAULT_STEPS,
    _b_tensor,
    analyze,
    classify,
    metric_geometry,
)
from lagkit.verifier import run_suite
from tests.conftest import count_rows, mesh


def expected_b(curvatures):
    """Independent rational-arithmetic oracle for the b constants."""
    radii = [Fraction(1, 1) / Fraction(str(a)) for a in curvatures]
    mean = sum(radii, Fraction(0)) / len(radii)
    diffs = [mean - r for r in radii]
    rho = float(sum(d * d for d in diffs)) ** 0.5
    return np.sort([float(d) / rho for d in diffs])


# frozen from the oracle above: (-7, 2, 5)/sqrt(78)
B123 = np.array([-0.7925939239012169, 0.2264554068289191, 0.5661385170722978])


def assert_b_matches(b_hat, expected, tol):
    direct = np.max(np.abs(np.sort(b_hat) - expected))
    flipped = np.max(np.abs(np.sort(-np.asarray(b_hat)) - expected))
    assert min(direct, flipped) <= tol


def test_expected_b_oracle_frozen():
    assert np.max(np.abs(expected_b([1, 2, 3]) - B123)) <= 1e-15


@pytest.fixture(scope="module")
def hilf3_analysis(hilf3, grid3):
    return analyze(hilf3, grid3)


def test_closed_form_b_values(hilf3_analysis):
    for b_row in hilf3_analysis.lift.b:
        assert_b_matches(b_row, B123, 1e-9)
    sums = hilf3_analysis.lift.b.sum(axis=1)
    squares = (hilf3_analysis.lift.b**2).sum(axis=1)
    assert np.max(np.abs(sums)) <= 1e-12
    assert np.max(np.abs(squares - 1.0)) <= 1e-12


def test_laguerre_form_vanishes_on_family(hilf3_analysis):
    assert np.max(np.abs(hilf3_analysis.C_closed)) <= 1e-6


def test_structural_tensor_vanishes_on_family(hilf3_analysis):
    assert np.max(np.abs(hilf3_analysis.L_structural)) <= 1e-4


def test_structural_matches_closed_b(hilf3_analysis):
    n = 3
    diag_b = np.einsum("mi,ij->mij", hilf3_analysis.lift.b, np.eye(n))
    assert np.max(np.abs(hilf3_analysis.B_structural - diag_b)) <= 1e-5


def test_contracted_covariant_identity(hilf3_analysis):
    n = 3
    sums = np.einsum("miji->mj", hilf3_analysis.cov_B)
    assert np.max(np.abs(sums - (n - 1) * hilf3_analysis.C_closed)) <= 1e-4


def test_torus_two_curvature_constants(torus21, torus_points):
    a = analyze(torus21, torus_points)
    target = np.sqrt(0.5)
    for b_row in a.lift.b:
        assert_b_matches(b_row, np.array([-target, target]), 1e-6)


def test_torus_laguerre_form_cancels(torus21, torus_points):
    # e_v(r) = (r - r_tube) e_v(log rho) identically on a torus of
    # revolution, so the closed-form C vanishes even though r and rho
    # both vary along the tube.
    a = analyze(torus21, torus_points)
    assert np.max(np.abs(a.C_closed)) <= 1e-9
    assert np.max(np.abs(a.C_structural)) <= 1e-5


def test_cross_oracle_agreement_generic(generic_chart, generic_points):
    """Closed forms and structural projections agree on a generic chart."""
    a = analyze(generic_chart, generic_points)
    scale_l = max(1.0, np.max(np.abs(a.L_structural)))
    assert np.max(np.abs(a.L_closed_a - a.L_structural)) / scale_l <= 1e-3
    scale_c = max(1.0, np.max(np.abs(a.C_closed)))
    assert np.max(np.abs(a.C_closed - a.C_structural)) / scale_c <= 1e-3
    diag_b = np.einsum("mi,ij->mij", a.lift.b, np.eye(2))
    assert np.max(np.abs(a.B_structural - diag_b)) <= 1e-5


def test_structure_equation_residual(hilf3_analysis):
    assert hilf3_analysis.structure_residual() <= 1e-3


def frame_route_cov_b(chart, points):
    """B_ij,k by differentiating the eigenvector frame and b, then
    ``frame_connection``: the reference route, valid where the principal
    curvatures are distinct."""
    m, n = points.shape
    lift = lift_arrays(chart, points)
    w = frame_coefficients(lift)

    def pack(U):
        cloud = lift_arrays(chart, U)
        k = len(cloud.u)
        return np.concatenate(
            [frame_coefficients(cloud).reshape(k, -1), cloud.b, cloud.g.reshape(k, -1)],
            axis=1,
        )

    d = fd.grad_field(pack, points, DEFAULT_STEPS.first)
    dw = d[..., : n * n].reshape(m, n, n, n)
    db = d[..., n * n : n * n + n]
    dg = d[..., n * n + n :].reshape(m, n, n, n)
    conn = frame_connection(w, dw, christoffels(lift.g, dg), lift.g)
    E_b = np.einsum("mka,mai->mki", w, db)
    # B_ij,k = E_k(b_i) delta_ij - Gamma^j_ik b_j - Gamma^i_jk b_i
    return (
        np.einsum("mki,ij->mijk", E_b, np.eye(n))
        - np.einsum("mkij,mj->mijk", conn, lift.b)
        - np.einsum("mkji,mi->mijk", conn, lift.b)
    )


@pytest.mark.parametrize("case", ["hilf3", "generic"])
def test_covariant_b_matches_frame_route(case, hilf3, grid3, generic_chart, generic_points):
    chart, points = (hilf3, grid3) if case == "hilf3" else (generic_chart, generic_points)
    a = analyze(chart, points)
    n = chart.n
    w = frame_coefficients(a.lift)
    on_frame = np.einsum("mia,mab,mjb->mij", w, _b_tensor(a.lift), w)
    assert np.max(np.abs(on_frame - np.einsum("mi,ij->mij", a.lift.b, np.eye(n)))) <= 1e-12
    reference = frame_route_cov_b(chart, points)
    scale = max(1.0, np.max(np.abs(reference)))
    assert np.max(np.abs(a.cov_B - reference)) / scale <= 1e-6


def test_flat_invariant_metric(hilf3, grid3):
    mf = metric_geometry(hilf3, grid3)
    assert np.max(np.abs(mf.riemann_frame)) <= 1e-4
    assert mf.antisymmetry_residual() <= 1e-10


def test_curvature_relation_generic(generic_chart, generic_points):
    a = analyze(generic_chart, generic_points)
    mf = metric_geometry(generic_chart, generic_points)
    L = a.L_structural
    eye = np.eye(2)
    rhs = (
        np.einsum("mjk,il->mijkl", L, eye)
        + np.einsum("mil,jk->mijkl", L, eye)
        - np.einsum("mik,jl->mijkl", L, eye)
        - np.einsum("mjl,ik->mijkl", L, eye)
    )
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(mf.riemann_frame - rhs)) / scale <= 1e-3


def test_classify_explicit_family(hilf3, grid3):
    cls = classify(hilf3, grid3)
    assert cls.is_isotropic
    assert cls.is_isoparametric
    assert abs(cls.lambda_estimate) <= 1e-5
    assert cls.prop2_sign_ok
    assert cls.prop7_consistent
    assert_b_matches(cls.b_hat, B123, 1e-6)
    assert cls.alpha is not None and cls.alpha_spread <= 1e-5


def test_classify_torus(torus21, torus_points):
    cls = classify(torus21, torus_points)
    assert not cls.is_isotropic          # L has eigenvalues +-1/4
    assert cls.is_isoparametric          # C = 0 and constant b
    assert cls.b_spread <= 1e-9
    assert cls.max_abs_c <= 1e-9


def test_classify_generic_chart_negative(generic_chart, generic_points):
    cls = classify(generic_chart, generic_points)
    assert not cls.is_isotropic
    assert not cls.is_isoparametric


def test_classify_needs_two_points(hilf3):
    with pytest.raises(InputError):
        classify(hilf3, np.zeros((1, 3)))


def test_classify_sphere_umbilic():
    with pytest.raises(UmbilicError):
        classify(sphere_chart(1.0), mesh(2, 0.1, 3))


def test_identity_suite_explicit_family(hilf3, grid3):
    report = run_suite(hilf3, grid3)
    by_name = {c.name: c for c in report.checks}
    assert by_name["b_trace_zero"].residual <= 1e-9
    assert by_name["b_square_one"].residual <= 1e-9
    assert by_name["l_trace_laplacian"].residual <= 1e-4
    assert by_name["covariant_b_square"].residual <= 1e-4
    assert by_name["log_rho_laplacian"].residual <= 1e-5
    assert by_name["log_rho_trace_identity"].residual <= 1e-5
    assert by_name["isoparametric_curvature_sum"].residual <= 1e-4
    assert by_name["rho_square_bound"].status == "skip"
    assert "vacuous" in by_name["rho_square_bound"].note
    assert report.classification["lambda_estimate"] >= -1e-6


def test_identity_suite_skips_on_torus(torus21, torus_points):
    report = run_suite(torus21, torus_points)
    by_name = {c.name: c for c in report.checks}
    assert by_name["covariant_b_square"].status == "skip"
    assert by_name["isoparametric_curvature_sum"].status == "skip"
    assert "n >= 3" in by_name["isoparametric_curvature_sum"].note


def test_l_variant_arbitration(hilf3_analysis):
    dev_a = np.max(np.abs(hilf3_analysis.L_closed_a - hilf3_analysis.L_structural))
    dev_b = np.max(np.abs(hilf3_analysis.L_closed_b - hilf3_analysis.L_structural))
    assert dev_a <= 1e-3
    assert dev_b > 1e-3


def test_per_point_operations(hilf3):
    a = analyze(hilf3, np.array([[0.1, -0.2, 0.15]]))
    assert np.max(np.abs(a.C_closed[0])) <= 1e-6
    assert np.max(np.abs(a.L_structural[0])) <= 1e-4
    assert np.max(np.abs(np.diag(a.lift.b[0]) - a.B_structural[0])) <= 1e-5
    assert abs(np.trace(a.L_structural[0]) / 3) <= 1e-4
    assert a.L_closed_a[0].shape == a.L_closed_b[0].shape == (3, 3)


def test_eigh_runs_on_grid_rows_only(monkeypatch, hilf3):
    # The verify-hilf3 inputs: 5^3 grid points, 203 cloud points each.  The
    # lift takes r and rho from traces on the whole cloud; the principal
    # decomposition runs on the grid rows that read the frame.
    eigh_rows = count_rows(monkeypatch, charts.principal_arrays, 0)
    lift_rows = count_rows(monkeypatch, frames.lift_arrays, 1)
    analyze(hilf3, mesh(3, 0.4, 5))
    assert sum(lift_rows) == 125 * 203 == 25375
    assert sum(eigh_rows) == 125
