"""Taylor jets of the closed-form charts against an independent oracle.

The x-jet tests differentiate the formulas of the module docstrings
symbolically, in symbols for the coordinates and for the chart's
constants, and evaluate the partials up to order 5 in 40-digit mpmath
arithmetic at the exact binary values of the float constants, so the
oracle's only sizeable error is the final rounding to float.

The lift tests check the Taylor coefficients of Y, g, log rho, r and B
to the degree ``invariants`` reads each: 3 for Y, 2 for g and log rho, 1
for r and B.  Their oracle shares no step with the
Taylor engine: the lift at a point is built in 40-digit mpmath from the
sympy partials of x up to order 2, with the radii from ``mpmath.eigsy``
of L^-1 II L^-T (I = L L^T), and its partials up to order 3 are central
differences at step 1e-8 with exact dyadic weights, whose truncation and
roundoff both stay near 1e-16.
"""

from functools import reduce
from itertools import combinations_with_replacement, product
from math import factorial

import mpmath
import numpy as np
import pytest
import sympy as sp

from lagkit import taylor
from lagkit.charts import JET_DEGREE, jet_arrays
from lagkit.construction import (
    ConstructionConstants,
    b_from_curvatures,
    build_immersion,
    random_orthogonal,
)
from lagkit.errors import InputError
from lagkit.families import HilfParams, hilf_chart, torus_chart
from lagkit.invariants import _taylor_fields
from tests.test_taylor_kernel import is_batch_inner

POINTS = ((0.3, -0.2, 0.25), (-0.45, 0.1, 0.35), (0.05, 0.4, -0.3))
REL_TOL = 1e-12
LIFT_TOL = 1e-11


def hilf_case(a, multiplicities=(), phi=0.3):
    """(chart, x expressions, coordinate symbols, {constant symbol: value})."""
    params = HilfParams(a=a, multiplicities=multiplicities, phi=phi)
    n = params.n
    u = sp.symbols(f"u0:{n}")
    A = sp.symbols(f"A0:{n}")
    phi_s = sp.Symbol("phi")
    T = sum(Ai * ui**2 for Ai, ui in zip(A, u))
    S = sum(Ai**2 * ui**2 for Ai, ui in zip(A, u))
    W = (T + phi_s) / (S + 1)
    x = [W] + [ui * (1 - W * Ai) for Ai, ui in zip(A, u)]
    constants = {**dict(zip(A, params.coeffs)), phi_s: params.phi}
    return hilf_chart(params), x, u, constants


def torus_case(R=2.0, r_tube=1.0):
    u = sp.symbols("u0:2")
    R_s, r_s = sp.symbols("R r")
    w = R_s + r_s * sp.cos(u[1])
    x = [w * sp.cos(u[0]), w * sp.sin(u[0]), r_s * sp.sin(u[1])]
    return torus_chart(R, r_tube), x, u, {R_s: R, r_s: r_tube}


def constructed_case(n):
    """The constructed chart with the rotation C folded into the oracle:
    x^1 = r/rho, x^(s+1) = sum_k w_k C[k, s] with
    w_k = vbar_k (1 - (r/rho) bbar_k) + d_k."""
    c = ConstructionConstants(
        b_from_curvatures(range(1, n + 1)),
        cmat=random_orthogonal(n, seed=1),
        beta1=np.linspace(0.3, -0.1, n),
        beta3=np.linspace(0.1, -0.2, n),
        gamma1=np.linspace(0.01, -0.02, n),
    )
    v = sp.symbols(f"v0:{n}")
    bbar = sp.symbols(f"bbar0:{n}")
    d = sp.symbols(f"d0:{n}")
    C = sp.symbols(f"C0:{n * n}")
    phi = sp.Symbol("phi")
    rho = (1 + sum((vk * bk) ** 2 for vk, bk in zip(v, bbar))) / 2
    q = (sum(vk**2 * bk for vk, bk in zip(v, bbar)) / 2 + phi / 2) / rho
    w = [vk * (1 - q * bk) + dk for vk, bk, dk in zip(v, bbar, d)]
    x = [q] + [sum(w[k] * C[k * n + s] for k in range(n)) for s in range(n)]
    constants = {
        **dict(zip(bbar, 1.0 / c.b)),
        **dict(zip(d, c.diag * (c.beta1 - c.beta3 * c.b))),
        **dict(zip(C, c.cmat.ravel())),
        phi: c.phi,
    }
    return build_immersion(c).chart, x, v, constants


CASES = {
    "hilf-2": lambda: hilf_case((1.0, 2.0)),
    "hilf-3": lambda: hilf_case((1.0, 2.0, 3.0), phi=0.0),
    "torus": torus_case,
    "constructed-2": lambda: constructed_case(2),
    "constructed-3": lambda: constructed_case(3),
}


def monomials(n, degree):
    """The exponent tuples of ``taylor``'s graded basis."""
    return [tuple(np.bincount(alpha, minlength=n))
            for k in range(degree + 1) for alpha in combinations_with_replacement(range(n), k)]


def oracle_function(x, u, constants, order):
    """mpmath callable u -> [d^alpha x / alpha!] for |alpha| <= order, in
    the graded basis, from sympy derivatives of the expressions ``x`` with
    the constants at their exact binary values; each partial is the
    derivative of one of the order below."""
    x = [c.subs({k: sp.Rational(float(v)) for k, v in constants.items()}) for c in x]
    partials = {}
    for alpha in monomials(len(u), order):
        if not any(alpha):
            partials[alpha] = x
            continue
        i = max(k for k, e in enumerate(alpha) if e)
        lower = tuple(e - (k == i) for k, e in enumerate(alpha))
        partials[alpha] = [sp.diff(c, u[i]) for c in partials[lower]]
    exprs = [[c / reduce(lambda acc, e: acc * factorial(e), alpha, 1) for c in partials[alpha]]
             for alpha in monomials(len(u), order)]
    return sp.lambdify(u, exprs, modules="mpmath")


def assert_x_coefficients_match(chart, x, u, constants, order=2):
    """``chart.jet`` against the sympy partials of ``x`` in ``u`` up to
    ``order``: the partials d^alpha x = alpha! c_alpha of each order k are
    bounded by REL_TOL times the largest partial of that order, so x, dx
    and ddx each keep their own bound."""
    n = len(u)
    f = oracle_function(x, u, constants, order)
    basis = monomials(n, order)
    scale = np.array([reduce(lambda acc, e: acc * factorial(e), alpha, 1) for alpha in basis])
    degree = np.array([sum(alpha) for alpha in basis])
    U = np.array([p[:n] for p in POINTS])
    got = chart.jet(U, order).c * scale[:, None, None]        # (K, m, n+1)
    for row, point in enumerate(U):
        with mpmath.workdps(40):
            want = np.array(f(*[mpmath.mpf(float(v)) for v in point]), dtype=float)
        want = want * scale[:, None]
        for k in range(order + 1):
            block = degree == k
            error = np.max(np.abs(got[block, row] - want[block]))
            assert error <= REL_TOL * np.max(np.abs(want[block])), (k, row)


@pytest.mark.parametrize("a,multiplicities", [
    ((1.0, 2.0), ()),
    ((1.0, -2.0, 3.0), ()),
    ((1.0, 2.0), (2, 1)),
])
def test_hilf_jet_matches_sympy(a, multiplicities):
    assert_x_coefficients_match(*hilf_case(a, multiplicities))


@pytest.mark.parametrize("n", [2, 3])
def test_constructed_jet_matches_sympy(n):
    assert_x_coefficients_match(*constructed_case(n))


@pytest.mark.parametrize("name", ["hilf-2", "torus"])
def test_degree_five_jet_matches_sympy(name):
    assert_x_coefficients_match(*CASES[name](), order=5)


def test_jet_arrays_partials_are_the_coefficients(hilf3):
    U = np.array(POINTS)
    x, dx, ddx, _ = jet_arrays(hilf3, U)
    assert isinstance(x, taylor.Taylor) and x.d == JET_DEGREE == 5   # the degree analyze reads
    X = hilf3.jet(U, 5)
    for got, want in ((x.value, X.value), (dx, X.grad().value), (ddx, X.grad().grad().value),
                      (ddx[:, 0, 1], X.c[5]), (ddx[:, 0, 0], 2 * X.c[4])):
        # d_0 d_1 x is the coefficient of h_0 h_1, d_0^2 x twice that of h_0^2
        assert np.allclose(got, want, rtol=1e-14, atol=1e-15)


def test_degrees_below_the_range_are_rejected():
    with pytest.raises(ValueError, match="degree >= 1"):
        taylor.variables(np.array(POINTS), 0)


@pytest.mark.parametrize("k", [0, -1, 1.0, 2.0])
def test_powers_other_than_positive_integers_are_rejected(k):
    # The float map gives 1 and 1/x for k = 0 and -1; a Taylor power that
    # returned x itself would give a jet of another map than the evaluator.
    V = taylor.variables(np.array(POINTS), 2)
    with pytest.raises(InputError, match="positive integer"):
        V ** k
    assert np.array_equal((V ** 3).c, (V * V * V).c)


# The lift oracle.

STEP = mpmath.mpf(2) ** -27      # about 7.5e-9, exact in binary
FIRST = {-1: -0.5, 1: 0.5}
SECOND = {-1: 1.0, 0: -2.0, 1: 1.0}
THIRD = {-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5}
STENCILS = {1: FIRST, 2: SECOND, 3: THIRD}


def mp_lift(f, constants, point, xi_ref):
    """(Y, g, log rho, r, B) at ``point`` in mpmath; the normal is the
    generalized cross product of the Jacobian rows, oriented along xi_ref."""
    n = len(point)
    coeffs = f(*point)
    x = mpmath.matrix(coeffs[0])
    dx = mpmath.matrix([coeffs[1 + i] for i in range(n)])             # (n, n+1)
    second = {alpha: k for k, alpha in enumerate(monomials(n, 2))}
    ddx = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            alpha = tuple(np.bincount([i, j], minlength=n))
            ddx[i][j] = [c * (2 if i == j else 1) for c in coeffs[second[alpha]]]
    normal = [(-1) ** (n + a) * mpmath.det(mpmath.matrix(
        [[dx[i, b] for b in range(n + 1) if b != a] for i in range(n)])) for a in range(n + 1)]
    norm = mpmath.sqrt(sum(c * c for c in normal))
    sign = 1 if sum(c * r for c, r in zip(normal, xi_ref)) > 0 else -1
    xi = [sign * c / norm for c in normal]
    I = dx * dx.T
    II = mpmath.matrix(n, n)
    for i in range(n):
        for j in range(n):
            II[i, j] = sum(ddx[i][j][a] * xi[a] for a in range(n + 1))
    III = II * mpmath.inverse(I) * II
    L = mpmath.cholesky(I)
    Linv = mpmath.inverse(L)
    k, _ = mpmath.eigsy(Linv * II * Linv.T)
    radii = [1 / k[i] for i in range(n)]
    r = sum(radii) / n
    rho = mpmath.sqrt(sum((r - ri) ** 2 for ri in radii))
    dot = sum(x[a] * xi[a] for a in range(n + 1))
    Y = [rho * dot, -rho * dot] + [rho * c for c in xi] + [rho]
    g = [rho**2 * III[i, j] for i in range(n) for j in range(n)]
    B = [rho * (r * III[i, j] - II[i, j]) for i in range(n) for j in range(n)]
    return {"Y": Y, "g": g, "logrho": [mpmath.log(rho)], "r": [r], "B": B}


def oracle_lift_coefficients(f, constants, point, xi_ref):
    """{field: (K, components)} degree-3 Taylor coefficients by central differences."""
    n = len(point)
    cache = {}

    def at(shift):
        if shift not in cache:
            cache[shift] = mp_lift(f, constants,
                                   [mpmath.mpf(p) + s * STEP for p, s in zip(point, shift)], xi_ref)
        return cache[shift]

    out = {}
    for alpha in monomials(n, 3):
        counts = {axis: e for axis, e in enumerate(alpha) if e}
        total = None
        for combo in product(*[STENCILS[e].items() for e in counts.values()]):
            weight = reduce(lambda acc, item: acc * item[1], combo, 1.0)
            shift = [0] * n
            for axis, (offset, _) in zip(counts, combo):
                shift[axis] = offset
            values = at(tuple(shift))
            terms = {k: [weight * c for c in v] for k, v in values.items()}
            total = terms if total is None else {k: [a + b for a, b in zip(total[k], terms[k])]
                                                 for k in total}
        scale = STEP ** sum(alpha) * reduce(lambda acc, e: acc * factorial(e), alpha, 1)
        for k, v in total.items():
            out.setdefault(k, []).append([float(c / scale) for c in v])
    return {k: np.array(v) for k, v in out.items()}


@pytest.mark.parametrize("name", ["hilf-2", "hilf-3", "torus", "constructed-3"])
def test_lift_taylor_coefficients_match_oracle(name):
    chart, x, u, constants = CASES[name]()
    n = len(u)
    f = oracle_function(x, u, constants, 2)
    point = np.array(POINTS[0][:n])
    x, _, _, xi0 = jet_arrays(chart, point[None])
    fields = _taylor_fields([x, xi0])
    assert {key: fields[key].d for key in fields} == {
        "Y": 3, "g": 2, "logrho": 2, "III": 1, "r": 1, "B": 1}
    with mpmath.workdps(40):
        want = oracle_lift_coefficients(f, constants, point, xi0[0])
    for key, exact in want.items():
        got = fields[key].c[:, 0].reshape(len(fields[key].c), -1)
        exact = exact[:len(got)]
        assert np.max(np.abs(got - exact)) <= LIFT_TOL * np.max(np.abs(exact)), key


@pytest.mark.parametrize("route", [
    lambda t, rows: t[rows],
    lambda t, rows: t[np.isin(np.arange(len(t.value)), rows)],
], ids=["index", "mask"])
def test_rows_of_a_jet_give_the_fields_of_their_own_jet(route):
    # analyze keeps the regular rows of the grid's jet: their
    # fields must be those of a jet of those rows alone, bit for bit.
    chart = hilf_chart(HilfParams(a=(1.0, 2.0, 3.0)))
    axis = np.linspace(-0.4, 0.4, 5)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    rows = np.flatnonzero(np.arange(len(grid)) % 7 != 3)
    x, _, _, xi = jet_arrays(chart, grid)
    got = _taylor_fields([route(x, rows), xi[rows]])
    x, _, _, xi = jet_arrays(chart, grid[rows])
    want = _taylor_fields([x, xi])
    for key, field in want.items():
        assert np.array_equal(got[key].c, field.c), key


def test_taylor_fields_are_batch_inner_and_the_lift_inputs_are_not():
    # Every field of _taylor_fields keeps the batch axis innermost in
    # memory, so each product step runs one loop over the points.  What
    # the lift reads keeps the chart jet's layout, as its bits depend on
    # it: x's coefficients and xi C-contiguous, dx and ddx (partials read
    # off those coefficients) with the ambient axis innermost.
    chart = hilf_chart(HilfParams(a=(1.0, 2.0, 3.0)))
    axis = np.linspace(-0.4, 0.4, 3)
    grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    x, dx, ddx, xi = jet_arrays(chart, grid)
    assert x.c.flags.c_contiguous and xi.flags.c_contiguous
    assert dx.strides[-1] == ddx.strides[-1] == 8
    for key, field in _taylor_fields([x, xi]).items():
        assert is_batch_inner(field.c), key
