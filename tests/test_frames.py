import dataclasses

import numpy as np
import pytest

from lagkit.charts import IRREGULAR, jet_arrays, regularity
from lagkit.families import HilfParams, hilf_chart
from lagkit.invariants import analyze
from lagkit.spaces import dot, p_vector
from tests import central
from tests.conftest import mesh


@pytest.fixture(scope="module")
def hilf2_lift(hilf2):
    return analyze(hilf2, np.array([[0.1, -0.2]]))


def test_position_vector_lightlike(hilf2_lift):
    Y = hilf2_lift.Y[0]
    assert abs(dot(hilf2_lift.signs, Y, Y)) <= 1e-14


def test_position_vector_last_coordinate_is_rho(hilf2_lift):
    assert abs(hilf2_lift.Y[0, -1] - hilf2_lift.rho[0]) <= 1e-15


def test_position_vector_orthogonal_to_p(hilf2_lift):
    signs = hilf2_lift.signs
    assert abs(dot(signs, hilf2_lift.Y[0], p_vector(signs.size))) <= 1e-14


def test_normal_map_relations(hilf2_lift):
    signs, Y, eta = hilf2_lift.signs, hilf2_lift.Y[0], hilf2_lift.eta[0]
    assert abs(dot(signs, eta, eta)) <= 1e-10
    assert abs(dot(signs, eta, p_vector(signs.size)) + 1.0) <= 1e-14
    assert abs(dot(signs, Y, eta)) <= 1e-10


def test_rho_at_origin_two_curvature(hilf2):
    # a = (1, 2): curvatures +-(2, 4) at the origin, radii -+(1/2, 1/4),
    # so rho^2 = 2 (1/8)^2 = 1/32 -- independent arithmetic oracle.
    a = analyze(hilf2, np.zeros((1, 2)))
    assert abs(a.rho[0] ** 2 - 1.0 / 32.0) <= 1e-14


def invariant_metric(chart, U):
    """g = rho^2 III at U, from the III and rho of ``charts.regularity``."""
    _, dx, ddx, xi = jet_arrays(chart, U)
    _, III, _, rho, _, _, _ = regularity(dx, ddx, xi)
    return rho[:, None, None] ** 2 * III, III


def test_metric_is_scaled_third_form(hilf2):
    g, III = invariant_metric(hilf2, np.zeros((1, 2)))
    III = III[0]
    # rho^2 = 1/32 at the origin (test_rho_at_origin_two_curvature)
    assert np.allclose(g[0], III / 32.0, atol=1e-15)
    # oracle: III at the origin is the differential of the closed-form
    # normal, d xi . d xi = diag(4 a_i^2)
    dxi = central.grad(hilf2.normal, np.zeros((1, 2)), 1e-5)[0]
    third = dxi @ dxi.T
    assert np.max(np.abs(third - III)) <= 1e-9


def test_nan_second_partial_raises(hilf2):
    # One NaN entry of ddx makes II, III, r and rho NaN at that point only;
    # NaN compares false with every threshold, so the guard must test for
    # a positive diagonal and finite r and rho, not for a non-positive one.
    # (Named for the lift that raised here before analyze gave reasons.)
    def jet(U, degree):
        x = hilf2.jet(U, degree)
        x.c[4, 4, 2] = np.nan    # the coefficient of h_0 h_1, so ddx[4, 0, 1, 2]
        return x

    a = analyze(dataclasses.replace(hilf2, jet=jet), mesh(2, 0.2, 3))
    assert list(a.reason) == [""] * 4 + [IRREGULAR[3]] + [""] * 4
    assert a.grid.shape == (8, 2) and np.all(np.isfinite(a.N))


def test_rank_deficient_grid_point_raises():
    # hilf (1,2,3) on 5^3 at centre 0.5 and half-width 0.3 meets five
    # points of rank-deficient Jacobian and no other irregular point.
    # (Named for the lift that raised here before analyze gave reasons.)
    chart = hilf_chart(HilfParams(a=(1.0, 2.0, 3.0)))
    a = analyze(chart, mesh(3, 0.3, 5, center=[0.5] * 3))
    assert set(a.reason) == {"", IRREGULAR[0]} and list(a.reason).count(IRREGULAR[0]) == 5
    assert len(a.grid) == 120


def test_metric_equals_lift_gram(hilf3):
    # <Y_,i, Y_,j> reproduces the invariant metric in chart coordinates
    grid = mesh(3, 0.3, 2)

    def y_field(U):
        return analyze(hilf3, U).Y

    dY = central.grad(y_field, grid, 1e-4)
    gram = np.einsum("mal,l,mbl->mab", dY, analyze(hilf3, grid).signs, dY)
    assert np.max(np.abs(gram - invariant_metric(hilf3, grid)[0])) <= 1e-8


def test_n_vector_relations_on_grid(hilf3, grid3):
    a = analyze(hilf3, grid3)
    signs = a.signs
    assert np.max(np.abs(dot(signs, a.N, a.N))) <= 1e-6
    assert np.max(np.abs(dot(signs, a.Y, a.N) + 1.0)) <= 1e-6


def test_n_vector_constant_on_explicit_family(hilf3, grid3):
    a = analyze(hilf3, grid3)
    assert np.max(np.abs(a.N - a.N.mean(axis=0))) <= 1e-5


def test_n_minus_lambda_y_constant(hilf3, grid3):
    a = analyze(hilf3, grid3)
    lam = a.lambda_estimate
    alpha = a.N - lam * a.Y
    assert np.max(np.abs(alpha - alpha.mean(axis=0))) <= 1e-5


def test_single_point_n_vector(hilf3):
    a = analyze(hilf3, np.array([[0.1, 0.0, -0.1]]))
    N = a.N[0]
    assert N.shape == (7,)
    assert abs(dot(a.signs, N, N)) <= 1e-6


def test_laguerre_frame_relations(hilf3):
    a = analyze(hilf3, np.array([[0.1, -0.15, 0.2]]))
    signs = a.signs
    Y, N, eta = a.Y[0], a.N[0], a.eta[0]
    P = p_vector(signs.size)
    EY = a.E_Y[0]
    gram = np.einsum("ia,a,ja->ij", EY, signs, EY)
    residuals = {
        "position_lightlike": abs(dot(signs, Y, Y)),
        "n_vector_lightlike": abs(dot(signs, N, N)),
        "position_n_pairing": abs(dot(signs, Y, N) + 1.0),
        "normal_map_lightlike": abs(dot(signs, eta, eta)),
        "normal_map_p_pairing": abs(dot(signs, eta, P) + 1.0),
        "position_normal_orthogonal": abs(dot(signs, Y, eta)),
        "tangent_orthonormal": np.max(np.abs(gram - np.eye(3))),
    }
    assert max(residuals.values()) <= 1e-6
    assert EY.shape == (3, 7)
    # the scaled position Y / rho ends in 1
    assert np.isclose(Y[-1] / a.rho[0], 1.0)
