"""Finite differences as an independent oracle for exact partials.

``tests/central.py`` holds the central-difference helper that the
oracle tests use; it is exact on quartics up to roundoff.  The partials
d_c N, which ``invariants`` reads off the degree-1 coefficients of N
formed in Taylor arithmetic, are checked against a nested difference of
the values of N.  N is constant on the explicit family, so only the
torus can witness an error in d_c N.
"""

from itertools import product
from math import factorial

import numpy as np

from lagkit.charts import jet_arrays
from lagkit.families import torus_chart
from lagkit.invariants import _n_taylor, _taylor_fields, analyze
from lagkit.spaces import laguerre_signs
from tests import central

# Degree-4 polynomial field on R^3 with two components: every 4th-order
# central stencil is exact on it, so only roundoff remains.
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


def n_taylor(chart, U):
    """N at the points U as a Taylor polynomial of degree 1, formed as
    ``analyze`` forms it from the degree-5 jet of U."""
    x, _, _, xi = jet_arrays(chart, U)
    fields = _taylor_fields([x, xi])
    return _n_taylor(fields["Y"], fields["g"].truncate(2), laguerre_signs(chart.n))[0]


def test_central_partials_exact_on_quartic():
    U = np.random.default_rng(5).uniform(-0.5, 0.5, size=(6, 3))
    d1 = central.grad(quartic, U, 1e-2)
    d2 = central.hess(quartic, U, 1e-2)
    worst = 0.0
    for idx in product(range(3), repeat=2):
        for order, d in ((1, d1), (2, d2)):
            alpha = np.bincount(idx[:order], minlength=3)
            got = d[(slice(None),) + idx[:order]]
            worst = max(worst, float(np.max(np.abs(got - quartic(U, alpha)))))
    assert worst <= 1e-9 * np.max(np.abs(quartic(U)))


def test_n_derivative_vanishes_on_family(hilf3, grid3):
    # lambda = 0 and alpha constant make N constant on the explicit family
    assert np.max(np.abs(n_taylor(hilf3, grid3).partials()[1])) <= 1e-5


def assert_n_derivative_matches_nested_difference(chart, points):
    N = n_taylor(chart, points)
    assert np.array_equal(N.value, analyze(chart, points).N)
    dN = N.partials()[1]
    nested = central.grad(lambda V: n_taylor(chart, V).value, points, 1e-3)
    # The difference is within 2.6e-11 on both tori, so an error of 1e-9 in dN shows.
    assert np.max(np.abs(dN - nested)) <= 1e-9 * np.max(np.abs(nested))


def test_n_derivative_matches_nested_difference(torus21, torus_points):
    assert_n_derivative_matches_nested_difference(torus21, torus_points)


def test_n_derivative_matches_nested_difference_on_thin_torus(torus_points):
    assert_n_derivative_matches_nested_difference(torus_chart(3.0, 0.5), torus_points)
