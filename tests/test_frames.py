import dataclasses

import numpy as np
import pytest

from lagkit.errors import DegeneracyError
from lagkit.frames import lift_arrays
from lagkit.invariants import analyze
from lagkit.spaces import inner_product, laguerre_space, p_vector
from lagkit import fd
from tests.conftest import mesh


@pytest.fixture(scope="module")
def hilf2_lift(hilf2):
    return lift_arrays(hilf2, np.array([[0.1, -0.2]]))


def vectors(lift):
    """Y and eta of a one-point lift as space vectors."""
    return lift.space.vector(lift.Y[0]), lift.space.vector(lift.eta[0])


def test_position_vector_lightlike(hilf2_lift):
    Y, _ = vectors(hilf2_lift)
    assert abs(inner_product(Y, Y)) <= 1e-14


def test_position_vector_last_coordinate_is_rho(hilf2_lift):
    Y, _ = vectors(hilf2_lift)
    assert abs(Y.coords[-1] - hilf2_lift.rho[0]) <= 1e-15


def test_position_vector_orthogonal_to_p(hilf2_lift):
    Y, _ = vectors(hilf2_lift)
    P = p_vector(laguerre_space(2))
    assert abs(inner_product(Y, P)) <= 1e-14


def test_normal_map_relations(hilf2_lift):
    Y, eta = vectors(hilf2_lift)
    P = p_vector(laguerre_space(2))
    assert abs(inner_product(eta, eta)) <= 1e-10
    assert abs(inner_product(eta, P) + 1.0) <= 1e-14
    assert abs(inner_product(Y, eta)) <= 1e-10


def test_rho_at_origin_two_curvature(hilf2):
    # a = (1, 2): curvatures +-(2, 4) at the origin, radii -+(1/2, 1/4),
    # so rho^2 = 2 (1/8)^2 = 1/32 -- independent arithmetic oracle.
    lift = lift_arrays(hilf2, np.zeros((1, 2)))
    assert abs(lift.rho[0] ** 2 - 1.0 / 32.0) <= 1e-14


def test_metric_is_scaled_third_form(hilf2):
    lift = lift_arrays(hilf2, np.zeros((1, 2)))
    III = lift.III[0]
    assert np.allclose(lift.g[0], lift.rho[0] ** 2 * III, atol=1e-15)
    # oracle: III at the origin is the differential of the closed-form
    # normal, d xi . d xi = diag(4 a_i^2)
    dxi = fd.grad_field(hilf2.normal, np.zeros((1, 2)), 1e-5, 4)[0]
    third = dxi @ dxi.T
    assert np.max(np.abs(third - III)) <= 1e-9


def test_nan_second_partial_raises(hilf2):
    # One NaN entry of ddx makes II, III, r and rho NaN at that point only;
    # NaN compares false with every threshold, so the guard must test for
    # a positive diagonal and finite r and rho, not for a non-positive one.
    def jet(U):
        x, dx, ddx = hilf2.jet(U)
        ddx[4, 0, 1, 2] = np.nan
        return x, dx, ddx

    chart = dataclasses.replace(hilf2, jet=jet)
    with pytest.raises(DegeneracyError):
        lift_arrays(chart, mesh(2, 0.2, 3))


def test_metric_equals_lift_gram(hilf3):
    # <Y_,i, Y_,j> reproduces the invariant metric in chart coordinates
    grid = mesh(3, 0.3, 2)

    def y_field(U):
        return lift_arrays(hilf3, U).Y

    lift = lift_arrays(hilf3, grid)
    dY = fd.grad_field(y_field, grid, 1e-4, 4)
    gram = np.einsum("mal,l,mbl->mab", dY, lift.space.signs, dY)
    assert np.max(np.abs(gram - lift.g)) <= 1e-8


def test_n_vector_relations_on_grid(hilf3, grid3):
    a = analyze(hilf3, grid3)
    sp = a.lift.space
    assert np.max(np.abs(sp.dot(a.N, a.N))) <= 1e-6
    assert np.max(np.abs(sp.dot(a.lift.Y, a.N) + 1.0)) <= 1e-6


def test_n_vector_constant_on_explicit_family(hilf3, grid3):
    a = analyze(hilf3, grid3)
    assert np.max(np.abs(a.N - a.N.mean(axis=0))) <= 1e-5


def test_n_minus_lambda_y_constant(hilf3, grid3):
    a = analyze(hilf3, grid3)
    lam = a.lambda_estimate
    alpha = a.N - lam * a.lift.Y
    assert np.max(np.abs(alpha - alpha.mean(axis=0))) <= 1e-5


def test_single_point_n_vector(hilf3):
    a = analyze(hilf3, np.array([[0.1, 0.0, -0.1]]))
    N = a.lift.space.vector(a.N[0])
    assert N.coords.shape == (7,)
    assert abs(inner_product(N, N)) <= 1e-6


def test_laguerre_frame_relations(hilf3):
    a = analyze(hilf3, np.array([[0.1, -0.15, 0.2]]))
    sp = a.lift.space
    Y, N, eta = a.lift.Y[0], a.N[0], a.lift.eta[0]
    P = p_vector(sp).coords
    EY = a.E_Y[0]
    gram = np.einsum("ia,a,ja->ij", EY, sp.signs, EY)
    residuals = {
        "position_lightlike": abs(sp.dot(Y, Y)),
        "n_vector_lightlike": abs(sp.dot(N, N)),
        "position_n_pairing": abs(sp.dot(Y, N) + 1.0),
        "normal_map_lightlike": abs(sp.dot(eta, eta)),
        "normal_map_p_pairing": abs(sp.dot(eta, P) + 1.0),
        "position_normal_orthogonal": abs(sp.dot(Y, eta)),
        "tangent_orthonormal": np.max(np.abs(gram - np.eye(3))),
    }
    assert max(residuals.values()) <= 1e-6
    assert EY.shape == (3, 7)
    # the scaled position Y / rho ends in 1
    assert np.isclose(Y[-1] / a.lift.rho[0], 1.0)
