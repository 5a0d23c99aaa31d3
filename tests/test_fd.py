from itertools import product
from math import factorial

import numpy as np
import pytest

from lagkit import fd
from lagkit.frames import lift_arrays
from lagkit.invariants import DEFAULT_STEPS, _jets, _n_partials, _n_vector

# Degree-4 polynomial field on R^3 with two components: every 4th-order
# stencil of the cloud is exact on it, so only roundoff remains.
EXPONENTS = [e for e in product(range(5), repeat=3) if sum(e) <= 4]
COEFFS = np.random.default_rng(3).normal(size=(len(EXPONENTS), 2))


def quartic(U, alpha=(0, 0, 0)):
    """The field or its partial d^alpha, evaluated exactly."""
    out = np.zeros((U.shape[0], 2))
    for e, c in zip(EXPONENTS, COEFFS):
        if any(ei < ai for ei, ai in zip(e, alpha)):
            continue
        scale = np.prod([factorial(ei) // factorial(ei - ai) for ei, ai in zip(e, alpha)])
        out += scale * np.prod(U ** (np.array(e) - alpha), axis=1)[:, None] * c
    return out


def test_cloud_partials_exact_on_quartic():
    U = np.random.default_rng(5).uniform(-0.5, 0.5, size=(6, 3))
    steps = DEFAULT_STEPS
    cloud = fd.Cloud(U, (steps.first, steps.second, steps.third))
    # Third differences carry roundoff of about 4e-7 max|f| at the default
    # third step, so the field is scaled to unit size.
    values = quartic(cloud.points)
    scale = np.max(np.abs(values))
    f0, d1, d2, d3 = cloud.partials(values / scale)
    assert np.array_equal(f0, quartic(U) / scale)
    worst = 0.0
    for idx in product(range(3), repeat=3):   # includes d_012 (distinct indices)
        for order, d in ((1, d1), (2, d2), (3, d3)):
            alpha = np.bincount(idx[:order], minlength=3)
            got = d[(slice(None),) + idx[:order]]
            worst = max(worst, float(np.max(np.abs(got - quartic(U, alpha) / scale))))
    assert worst <= 1e-6


def test_cloud_without_third_step():
    U = np.zeros((2, 3))
    cloud = fd.Cloud(U, (1e-4, 1e-3))
    assert cloud.points.shape == (2 * (1 + 12 + 60), 3)
    assert len(cloud.partials(quartic(cloud.points))) == 3


@pytest.mark.parametrize("chart_name,points_name",
                         [("hilf3", "grid3"), ("torus21", "torus_points")])
def test_cloud_orders_one_two_bitwise_equal_grad_hess(request, chart_name, points_name):
    chart = request.getfixturevalue(chart_name)
    U = request.getfixturevalue(points_name)

    def field(V):
        lift = lift_arrays(chart, V)
        m = lift.u.shape[0]
        return np.concatenate(
            [lift.Y, lift.eta, lift.g.reshape(m, -1), np.log(lift.rho)[:, None]], axis=1
        )

    steps = DEFAULT_STEPS
    cloud = fd.Cloud(U, (steps.first, steps.second, steps.third))
    f0, d1, d2, _ = cloud.partials(field(cloud.points))
    assert np.array_equal(f0, field(U))
    assert np.array_equal(d1, fd.grad_field(field, U, steps.first))
    assert np.array_equal(d2, fd.hess_field(field, U, steps.second))


def test_n_derivative_vanishes_on_family(hilf3, grid3):
    # lambda = 0 and alpha constant make N constant on the explicit family
    lift, jets = _jets(hilf3, grid3, DEFAULT_STEPS, third=True)
    _, delta_y, gamma, hess_y = _n_vector(lift, jets)
    assert np.max(np.abs(_n_partials(lift, jets, delta_y, gamma, hess_y))) <= 1e-5


def test_n_derivative_matches_nested_difference(torus21, torus_points):
    steps = DEFAULT_STEPS
    lift, jets = _jets(torus21, torus_points, steps, third=True)
    _, delta_y, gamma, hess_y = _n_vector(lift, jets)
    dN = _n_partials(lift, jets, delta_y, gamma, hess_y)

    def n_field(V):
        return _n_vector(*_jets(torus21, V, steps))[0]

    nested = fd.grad_field(n_field, torus_points, 1e-3)
    assert np.max(np.abs(dN - nested)) <= 1e-5 * np.max(np.abs(nested))
