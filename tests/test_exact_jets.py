"""Exact chart jets against sympy derivatives of the closed-form maps.

The oracle differentiates the formulas of the module docstrings
symbolically, in symbols for the coordinates and for the chart's
constants, and evaluates the derivatives in 40-digit mpmath arithmetic
at the exact binary values of the float constants, so its only sizeable
error is the final rounding to float.
"""

import mpmath
import numpy as np
import pytest
import sympy as sp

from lagkit.construction import (
    ConstructionConstants,
    b_from_curvatures,
    build_immersion,
    random_orthogonal,
)
from lagkit.families import HilfParams, hilf_chart

POINTS = ((0.3, -0.2, 0.25), (-0.45, 0.1, 0.35), (0.05, 0.4, -0.3))
REL_TOL = 1e-12


def assert_jet_matches(chart, x, u, constants, mix=None):
    """``chart.jet`` against the partials of the expressions ``x`` in ``u``.

    ``constants`` maps each constant symbol of ``x`` to its float value.
    When given, ``mix`` (a float matrix) takes the oracle's components to
    the chart's, as the constant rotation of the constructed chart does.
    """
    n = len(u)
    dx = [[sp.diff(c, u[i]) for c in x] for i in range(n)]
    ddx = [[[sp.diff(c, u[k]) for c in dx[i]] for k in range(n)] for i in range(n)]
    oracle = sp.lambdify([*u, *constants], [x, dx, ddx], modules="mpmath")
    U = np.array([p[:n] for p in POINTS])
    got = chart.jet(U)
    for row, point in enumerate(U):
        with mpmath.workdps(40):
            args = [mpmath.mpf(float(v)) for v in [*point, *constants.values()]]
            want = [np.array(part, dtype=float) for part in oracle(*args)]
        for part, exact in zip(got, want):
            if mix is not None:
                exact = exact @ mix
            assert np.max(np.abs(part[row] - exact)) <= REL_TOL * np.max(np.abs(exact))


@pytest.mark.parametrize("a,multiplicities", [
    ((1.0, 2.0), ()),
    ((1.0, -2.0, 3.0), ()),
    ((1.0, 2.0), (2, 1)),
])
def test_hilf_jet_matches_sympy(a, multiplicities):
    params = HilfParams(a=a, multiplicities=multiplicities, phi=0.3)
    n = params.n
    u = sp.symbols(f"u0:{n}")
    A = sp.symbols(f"A0:{n}")
    phi = sp.Symbol("phi")
    T = sum(Ai * ui**2 for Ai, ui in zip(A, u))
    S = sum(Ai**2 * ui**2 for Ai, ui in zip(A, u))
    W = (T + phi) / (S + 1)
    x = [W] + [ui * (1 - W * Ai) for Ai, ui in zip(A, u)]
    constants = dict(zip(A, params.coeffs))
    constants[phi] = params.phi
    assert_jet_matches(hilf_chart(params), x, u, constants)


@pytest.mark.parametrize("n", [2, 3])
def test_constructed_jet_matches_sympy(n):
    c = ConstructionConstants.simple(
        b_from_curvatures(range(1, n + 1)),
        cmat=random_orthogonal(n, seed=1),
        beta1=np.linspace(0.3, -0.1, n),
        beta3=np.linspace(0.1, -0.2, n),
        gamma1=np.linspace(0.01, -0.02, n),
    )
    # x^1 = r/rho, x^(s+1) = sum_k w_k C[k, s] with
    # w_k = vbar_k (1 - (r/rho) bbar_k) + d_k; the oracle differentiates
    # (r/rho, w) and C is applied to its partials.
    v = sp.symbols(f"v0:{n}")
    bbar = sp.symbols(f"bbar0:{n}")
    d = sp.symbols(f"d0:{n}")
    phi = sp.Symbol("phi")
    rho = (1 + sum((vk * bk) ** 2 for vk, bk in zip(v, bbar))) / 2
    r = sum(vk**2 * bk for vk, bk in zip(v, bbar)) / 2 + phi / 2
    q = r / rho
    x = [q] + [vk * (1 - q * bk) + dk for vk, bk, dk in zip(v, bbar, d)]
    constants = {
        **dict(zip(bbar, 1.0 / c.b)),
        **dict(zip(d, c.diag * (c.beta1 - c.beta3 * c.b))),
        phi: c.phi,
    }
    mix = np.zeros((n + 1, n + 1))
    mix[0, 0] = 1.0
    mix[1:, 1:] = c.cmat
    assert_jet_matches(build_immersion(c).chart, x, v, constants, mix)
