"""Finite differences as an independent oracle for exact partials.

``tests/central.py`` holds the central-difference helper that the
oracle tests use; it is exact on quartics up to roundoff.  The partials
d_c N, which ``invariants`` assembles from third partials of Y and
second partials of g, are checked against a difference of N itself.
"""

from itertools import product
from math import factorial

import numpy as np

from lagkit.invariants import _jets, _n_partials, _n_vector
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
    lift, jets = _jets(hilf3, grid3, third=True)
    _, delta_y, gamma, hess_y = _n_vector(lift, jets)
    assert np.max(np.abs(_n_partials(lift, jets, delta_y, gamma, hess_y))) <= 1e-5


def test_n_derivative_matches_nested_difference(torus21, torus_points):
    lift, jets = _jets(torus21, torus_points, third=True)
    _, delta_y, gamma, hess_y = _n_vector(lift, jets)
    dN = _n_partials(lift, jets, delta_y, gamma, hess_y)

    def n_field(V):
        return _n_vector(*_jets(torus21, V))[0]

    nested = central.grad(n_field, torus_points, 1e-3)
    assert np.max(np.abs(dN - nested)) <= 1e-5 * np.max(np.abs(nested))
