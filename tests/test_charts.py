import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from lagkit.charts import (
    IRREGULAR,
    closed_form,
    forms_arrays,
    irregular_masks,
    jet_arrays,
    principal_arrays,
    radius_traces,
    regularity,
)
from lagkit.construction import (
    ConstructionConstants,
    b_from_curvatures,
    build_immersion,
    random_orthogonal,
)
from lagkit.errors import ImmersionError
from lagkit.families import HilfParams, hilf_chart, torus_chart
from tests import central
from tests.conftest import graph_chart, mesh, unit_sphere
from tests.test_symmetries import reparametrized


def quadric(a1, a2, cross=0.0):
    def h(U):
        return a1 * U[..., 0] ** 2 + a2 * U[..., 1] ** 2 + cross * U[..., 0] * U[..., 1]

    return graph_chart(h)


def point(u):
    """A one-point batch of shape (1, n)."""
    return np.asarray(u, dtype=float)[None, :]


def pointwise(chart, U):
    """r, rho, k and one reason per point, by name, from ``regularity`` at U."""
    _, dx, ddx, xi = jet_arrays(chart, U)
    _, _, r, rho, k, _, reason = regularity(dx, ddx, xi)
    return SimpleNamespace(r=r, rho=rho, k=k, reason=reason)


def forms(chart, U):
    """(I, II, III, W) of a chart on a batch of points of full rank, W the
    inverse factor of I that ``principal_arrays`` reads."""
    _, dx, ddx, xi = jet_arrays(chart, U)
    I, II, III, deficient, W = forms_arrays(dx, ddx, xi)
    assert not np.any(deficient)
    return I, II, III, W


def test_hilf_value_at_origin(hilf2):
    x, _, _, xi = jet_arrays(hilf2, point([0.0, 0.0]))
    assert np.allclose(x.value[0], 0.0)
    assert np.allclose(xi[0], [-1.0, 0.0, 0.0])


def test_polynomial_second_partials_exact():
    chart = quadric(0.5, 0.0)  # x = (u1, u2, u1^2 / 2): dd x_3 = diag(1, 0)
    _, _, ddx, _ = jet_arrays(chart, point([0.0, 0.0]))
    assert np.array_equal(ddx[0, ..., 2], np.diag([1.0, 0.0]))
    assert not np.any(ddx[0, ..., :2])


def test_torus_value(torus21):
    x, _, _, _ = jet_arrays(torus21, point([0.0, 0.0]))
    assert np.allclose(x.value[0], [3.0, 0.0, 0.0])


def collapse_chart():
    """A chart whose Jacobian has rank 1 everywhere; the rank test reads
    only dx, so any constant normal serves."""
    def collapse(U):
        s = U[..., 0] + U[..., 1]
        return np.stack([s, s, s**2], axis=-1)

    return closed_form(collapse, lambda U: np.tile([1.0, -1.0, 0.0], (len(U), 1)), n=2)


def test_rank_deficient_jacobian_rejected():
    assert pointwise(collapse_chart(), point([0.1, 0.2])).reason.tolist() == [IRREGULAR[0]]


def test_paraboloid_forms_identity():
    chart = quadric(0.5, 0.5)
    I, II, III, _ = forms(chart, point([0.0, 0.0]))
    assert np.allclose(I[0], np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(II[0]), np.eye(2), atol=1e-12)
    assert np.allclose(III[0], np.eye(2), atol=1e-12)


def test_torus_first_form(torus21):
    I, II, _, _ = forms(torus21, point([0.0, 0.0]))
    assert np.allclose(I[0], np.diag([9.0, 1.0]), atol=1e-12)
    assert np.allclose(II[0], II[0].T, atol=1e-12)


def constructed():
    """The constructed chart of b from a = (1, 2, 3) on its grid sqrt(2) v b."""
    c = ConstructionConstants(b_from_curvatures([1, 2, 3]), cmat=random_orthogonal(3, 7))
    return build_immersion(c).chart, np.sqrt(2.0) * mesh(3, 0.5, 3) * c.b


def rotated():
    """hilf (1, 2, 3) reparametrized by a rotation u = Q w."""
    chart, Q = hilf_chart(HilfParams(a=(1.0, 2.0, 3.0))), random_orthogonal(3, 31)
    return (reparametrized(chart, lambda W: W @ Q.T, "rotated"),
            mesh(3, 0.3, 3, center=[0.3] * 3) @ Q)


# II = ddx . xi is exactly symmetric, unsymmetrized: the jet's partials
# read d_i d_j x and d_j d_i x off one coefficient with the same scalings.
SECOND_FORMS = {
    "hilf3": lambda: (hilf_chart(HilfParams(a=(1.0, 2.0, 3.0))),
                      mesh(3, 0.3, 3, center=[0.3] * 3)),
    "hilf-mixed3": lambda: (hilf_chart(HilfParams(a=(1.0, -2.0, 3.0), phi=0.3)),
                            mesh(3, 0.3, 3, center=[0.3] * 3)),
    "torus": lambda: (torus_chart(2.0, 1.0), mesh(2, 0.9, 9)),
    "constructed": constructed,
    "rotated": rotated,
}


@pytest.mark.parametrize("name", list(SECOND_FORMS))
def test_second_form_is_exactly_symmetric(name):
    _, II, _, _ = forms(*SECOND_FORMS[name]())
    assert np.array_equal(II, np.swapaxes(II, -1, -2))


def test_second_form_symmetric_generic(generic_chart, generic_points):
    _, II, _, _ = forms(generic_chart, generic_points)
    assert np.array_equal(II, np.swapaxes(II, -1, -2))


def test_torus_principal_curvatures(torus21):
    _, II, _, W = forms(torus21, point([0.0, 0.0]))
    k, _ = principal_arrays(W, II)
    assert np.allclose(sorted(k[0]), [1.0 / 3.0, 1.0], atol=1e-12)


def test_frame_radii_arithmetic():
    # curvatures {1, 2} at the origin of a quadric graph
    chart = quadric(0.5, 1.0)
    batch = pointwise(chart, point([0.0, 0.0]))
    k = np.sort(np.abs(batch.k[0]))
    assert np.allclose(k, [1.0, 2.0], atol=1e-12)
    r_i = np.sort(np.abs(1.0 / batch.k[0]))
    assert np.allclose(r_i, [0.5, 1.0], atol=1e-12)
    assert abs(abs(batch.r[0]) - 0.75) <= 1e-12
    assert abs(batch.rho[0] - np.sqrt(0.125)) <= 1e-12


def test_mean_radius_centers_radii(generic_chart, generic_points):
    batch = pointwise(generic_chart, generic_points)
    r_i = 1.0 / batch.k
    centered = np.abs(np.sum(batch.r[:, None] - r_i, axis=1))
    assert np.all(centered <= 1e-12 * np.sum(np.abs(r_i), axis=1))


def test_directions_orthonormal_in_first_form(generic_chart, generic_points):
    I, II, _, W = forms(generic_chart, generic_points)
    _, e = principal_arrays(W, II)
    gram = np.einsum("mia,mab,mjb->mij", e, I, e)
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-8


def test_principal_direction_derivative_relation(hilf3):
    # e_i(xi) = -k_i e_i(x) along every principal direction
    U = mesh(3, 0.3, 2)
    _, dx, ddx, xi = jet_arrays(hilf3, U)
    _, II, _, _, W = forms_arrays(dx, ddx, xi)
    k, e = principal_arrays(W, II)
    dxi = central.grad(hilf3.normal, U, 1e-5)
    for i in range(3):
        lhs = np.einsum("ma,mad->md", e[:, i], dxi)
        rhs = -k[:, i, None] * np.einsum("ma,mad->md", e[:, i], dx)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_sphere_is_umbilic():
    assert pointwise(unit_sphere(), point([0.05, -0.03])).reason.tolist() == [IRREGULAR[1]]


def test_vanishing_curvature_rejected():
    cylinder_like = quadric(0.5, 0.0)
    assert pointwise(cylinder_like, point([0.0, 0.0])).reason.tolist() == [IRREGULAR[2]]


def test_irregular_masks_thresholds():
    # relative thresholds: spread < 1e-7 |k|max is umbilic,
    # min |k_i| <= 1e-7 |k|max is vanishing
    k = np.array([
        [2.0, 1.0],
        [1.0, 1.0 - 1e-9],
        [1.0, 1.0 - 1e-6],
        [1.0, 1e-9],
        [1.0, -1.0],
        [1e-8, -1e-8],
    ])
    umbilic, vanishing = irregular_masks(k)
    assert umbilic.tolist() == [False, True, False, False, False, False]
    assert vanishing.tolist() == [False, False, False, True, False, False]


def test_fd_jets_match_exact_jets(hilf3):
    # the central-difference oracle of tests/central.py against the Taylor jet
    U = mesh(3, 0.3, 2)[:4]
    _, dx, ddx, xi = jet_arrays(hilf3, U)
    dx_fd = central.grad(hilf3.evaluator, U, 1e-4)
    assert np.max(np.abs(dx - dx_fd)) <= 1e-10
    assert np.max(np.abs(ddx - central.hess(hilf3.evaluator, U, 1e-3))) <= 1e-6
    assert np.max(np.abs(np.einsum("mia,ma->mi", dx_fd, xi))) <= 1e-10


def test_unit_normal(hilf3):
    _, dx, _, xi = jet_arrays(hilf3, point([0.2, -0.1, 0.3]))
    assert abs(np.linalg.norm(xi[0]) - 1.0) <= 1e-10
    assert np.max(np.abs(dx[0] @ xi[0])) <= 1e-10


# The factor kernel: I = dx dx^T is factored once as L L^T in plain
# numpy; a point whose factor does not certify its conditioning takes the
# SVD rank test and is masked if rank deficient.


def jacobians(rng, n, ratios, scale=1.0):
    """Jacobians (m, n, n+1) with sigma_min / sigma_max equal to ``ratios``."""
    m = len(ratios)
    sv = np.empty((m, n))
    sv[:, 0] = 1.0
    sv[:, -1] = ratios
    lo = np.asarray(ratios, dtype=float)[:, None]
    sv[:, 1:-1] = lo + (1.0 - lo) * rng.uniform(0.0, 1.0, (m, n - 2))
    left = np.linalg.qr(rng.standard_normal((m, n, n)))[0]
    right = np.linalg.qr(rng.standard_normal((m, n + 1, n)))[0]
    return scale * np.einsum("mik,mk,mak->mia", left, sv, right)


def rank_forms(dx):
    """(III, deficient) of ``forms_arrays`` for a Jacobian batch with II = 0."""
    m, n, d = dx.shape
    return forms_arrays(dx, np.zeros((m, n, n, d)), np.tile(np.eye(d)[-1], (m, 1)))[2:4]


def rank_mask(dx):
    """The ``deficient`` mask of ``forms_arrays`` for a Jacobian batch."""
    return rank_forms(dx)[1]


def svd_rank_deficient(dx):
    """The plain criterion: sigma_min <= 1e-10 sigma_max."""
    sv = np.linalg.svd(dx, compute_uv=False)
    return sv[:, -1] <= 1e-10 * sv[:, 0]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rank_screen_matches_svd_criterion(n):
    # The mask is the SVD criterion, plus points whose I = dx dx^T cannot
    # be factored.  I squares the condition, so such points have sigma
    # ratios below 1e-7; every point left unmasked has a finite III.
    rng = np.random.default_rng(400 + n)
    ratios = np.concatenate([np.logspace(-14, 0, 57), [0.0, 0.0, 1e-10, 1.1e-10, 0.9e-10]])
    for scale in (1e-3, 1.0, 1e3):
        dx = jacobians(rng, n, ratios, scale)
        dx[-6, 0] = dx[-6, 1]                 # sigma ratio 1 made exactly rank deficient
        deficient = svd_rank_deficient(dx)
        assert deficient.any() and not deficient.all()
        sv = np.linalg.svd(dx, compute_uv=False)
        band = sv[:, -1] < 1e-7 * sv[:, 0]
        III, mask = rank_forms(dx)
        assert np.array_equal(mask & ~band, deficient & ~band)
        assert np.all(mask[deficient])
        assert np.all(np.isfinite(III[~mask])) and np.all(np.isnan(III[mask]))
        for i, want in enumerate(mask):
            assert rank_mask(dx[i:i + 1]).tolist() == [want]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rank_screen_one_bad_point_among_many(n):
    rng = np.random.default_rng(410 + n)
    ratios = np.exp(rng.uniform(np.log(1e-3), 0.0, 2000))
    ratios[1234] = 1e-12
    dx = jacobians(rng, n, ratios)
    assert svd_rank_deficient(dx).tolist().count(True) == 1
    assert np.flatnonzero(rank_mask(dx)).tolist() == [1234]


@pytest.mark.parametrize("n", [2, 3])
def test_non_finite_jacobian_raises_immersion_error(n):
    # A NaN row has a NaN pivot, so the screen never clears it; the rest
    # of the batch is cleared and skips the SVD.
    dx = jacobians(np.random.default_rng(420 + n), n, np.full(50, 0.5))
    dx[17, 1] = np.nan
    with pytest.raises(ImmersionError, match="not finite"):
        rank_mask(dx)
    assert not np.any(rank_mask(np.delete(dx, 17, axis=0)))


def spd_batch(rng, n, m=500):
    """dx with singular values in [0.3, 3], ddx symmetric in its two partial
    axes, as second partials are, and unit normals xi."""
    dx = jacobians(rng, n, rng.uniform(0.1, 1.0, m), scale=3.0)
    ddx = rng.standard_normal((m, n, n, n + 1))
    ddx = ddx + np.swapaxes(ddx, 1, 2)
    xi = rng.standard_normal((m, n + 1))
    return dx, ddx, xi / np.linalg.norm(xi, axis=-1, keepdims=True)


def relative_error(got, want):
    scale = np.max(np.abs(want), axis=tuple(range(1, want.ndim)), keepdims=True)
    return np.max(np.abs(got - want) / scale)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_forms_match_inverse_reference(n):
    dx, ddx, xi = spd_batch(np.random.default_rng(420 + n), n)
    I, II, III, deficient, _ = forms_arrays(dx, ddx, xi)
    assert not np.any(deficient)
    I_ref = np.einsum("mia,mja->mij", dx, dx)
    II_ref = np.einsum("mija,ma->mij", ddx, xi)
    III_ref = np.einsum("mij,mjk,mkl->mil", II_ref, np.linalg.inv(I_ref), II_ref)
    assert relative_error(I, I_ref) <= 1e-12
    assert relative_error(II, II_ref) <= 1e-12
    assert relative_error(III, III_ref) <= 1e-12
    assert np.array_equal(III, np.swapaxes(III, -1, -2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_principal_match_eigh_reference(n):
    dx, ddx, xi = spd_batch(np.random.default_rng(430 + n), n)
    I, II, _, _, W = forms_arrays(dx, ddx, xi)
    k, dirs = principal_arrays(W, II)
    lam, V = np.linalg.eigh(I)
    root_inv = np.einsum("mik,mk,mjk->mij", V, lam**-0.5, V)
    w, Q = np.linalg.eigh(root_inv @ II @ root_inv)
    k_ref = w[:, ::-1]
    dirs_ref = np.swapaxes(root_inv @ Q, -1, -2)[:, ::-1]
    assert relative_error(k, k_ref) <= 1e-12
    # Directions are defined up to sign; compare where curvatures are apart.
    gaps = np.min(-np.diff(k_ref, axis=-1), axis=-1) / np.max(np.abs(k_ref), axis=-1)
    apart = gaps > 1e-2
    assert apart.sum() > len(k) // 2
    sign = np.sign(np.sum(dirs * dirs_ref, axis=-1, keepdims=True))
    assert relative_error(dirs[apart], (sign * dirs_ref)[apart]) <= 1e-12
    gram = np.einsum("mia,mab,mjb->mij", dirs, I, dirs)
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-12


def exact_third_form(I, II):
    """II I^-1 II of one point in exact rational arithmetic, rounded once."""
    n = len(I)
    # Gauss-Jordan elimination of [I | II] leaves [Id | I^-1 II].
    rows = [[Fraction(v) for v in np.concatenate([I[i], II[i]])] for i in range(n)]
    for j in range(n):
        p = next(i for i in range(j, n) if rows[i][j] != 0)
        rows[j], rows[p] = rows[p], rows[j]
        rows[j] = [v / rows[j][j] for v in rows[j]]
        for i in range(n):
            if i != j:
                f = rows[i][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[j])]
    X = [row[n:] for row in rows]
    return np.array([
        [float(sum(Fraction(II[i, k]) * X[k][j] for k in range(n))) for j in range(n)]
        for i in range(n)
    ])


def test_unscreened_points_share_the_factor():
    rng = np.random.default_rng(440)
    dx, ddx, xi = spd_batch(rng, 3, m=50)
    dx[7] = jacobians(rng, 3, [1e-6])[0]          # det(I) / tr(I)^3 ~ 1e-12
    I, II, III, deficient, W = forms_arrays(dx, ddx, xi)
    assert not np.any(deficient)
    exact = exact_third_form(I[7], II[7])
    bound = 10.0 * np.finfo(float).eps * np.linalg.cond(I[7])
    assert np.max(np.abs(III[7] - exact)) <= bound * np.max(np.abs(exact))
    k, dirs = principal_arrays(W, II)
    assert np.all(np.isfinite(k)) and np.all(np.isfinite(dirs))

    singular = dx.copy()
    singular[3, 1] = singular[3, 0]
    _, _, III_s, deficient, _ = forms_arrays(singular, ddx, xi)
    assert np.flatnonzero(deficient).tolist() == [3]
    assert np.all(np.isnan(III_s[3])) and np.all(np.isfinite(np.delete(III_s, 3, axis=0)))


def test_failed_factor_is_a_rank_deficient_point():
    # sigma ratios of 1e-9 pass the SVD test, yet I = dx dx^T has cond
    # 1e18 and its factor meets NaN pivots on about half the points: those
    # are masked, with no warning, and ``regularity`` gives them a reason
    # instead of raising, with NaN k and e on those points.
    rng = np.random.default_rng(470)
    dx = jacobians(rng, 3, np.full(200, 1e-9))
    ddx = rng.standard_normal((200, 3, 3, 4))
    xi = rng.standard_normal((200, 4))
    xi = xi / np.linalg.norm(xi, axis=-1)[:, None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        I, II, III, deficient, _ = forms_arrays(dx, ddx, xi)
        _, _, _, _, k, e, reason = regularity(dx, ddx, xi)
    assert 0 < np.sum(deficient) < 200
    assert np.all(deficient == ~np.all(np.isfinite(III), axis=(-2, -1)))
    assert np.all(reason[deficient] == "rank-deficient Jacobian")
    assert np.all(np.isnan(k[deficient])) and np.all(np.isnan(e[deficient]))
    assert np.all(np.isfinite(k[~deficient])) and np.all(np.isfinite(e[~deficient]))


# The trace route: r and rho of the radii from S = L3^-1 II L3^-T, against
# the principal decomposition.


def assert_traces_match_eigh(II, III, W):
    """``radius_traces`` against r and rho of the ``eigh`` radii."""
    r, rho = radius_traces(II, III)
    k = principal_arrays(W, II)[0]
    r_i = 1.0 / k
    r_ref = np.mean(r_i, axis=-1)
    rho_ref = np.sqrt(np.sum((r_ref[:, None] - r_i) ** 2, axis=-1))
    kappa = np.max(np.abs(k), axis=-1) / np.min(np.abs(k), axis=-1)
    # Relative to eps, the trace route errs by about kappa^2, since III has
    # the k_i^2 as eigenvalues, and rho by |r| / rho as well, its own
    # condition near an umbilic; eigh errs by about kappa.
    eps = np.finfo(float).eps
    assert np.all(np.abs(r - r_ref) / np.abs(r_ref) <= 1e-10 + 8.0 * eps * kappa**2)
    tol = 1e-10 + 8.0 * eps * (kappa**2 + np.abs(r_ref) / rho_ref)
    assert np.all(np.abs(rho - rho_ref) / rho_ref <= tol)


@pytest.mark.parametrize("cross", [0.0, 0.4, -1.3])
def test_radius_traces_match_eigh_generic_quadric(cross):
    U = np.random.default_rng(450).uniform(-0.8, 0.8, (50, 2))
    assert_traces_match_eigh(*forms(quadric(1.0, 2.5, cross), U)[1:])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_radius_traces_match_eigh_random_forms(n):
    dx, ddx, xi = spd_batch(np.random.default_rng(460 + n), n)
    _, II, III, _, W = forms_arrays(dx, ddx, xi)
    assert_traces_match_eigh(II, III, W)


@pytest.mark.parametrize("spread", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_radius_traces_match_eigh_near_umbilic(spread):
    # Within 0.1 sqrt(spread) of the origin the relative curvature spread
    # of the graph stays within 5% of its value at the origin.
    chart = quadric(0.7, 0.7 * (1.0 + spread))
    _, II, III, W = forms(chart, mesh(2, 0.1 * np.sqrt(spread), 5))
    k = principal_arrays(W, II)[0]
    gap = (k[:, 0] - k[:, -1]) / np.max(np.abs(k), axis=-1)
    assert np.allclose(gap, spread, rtol=0.05)
    assert_traces_match_eigh(II, III, W)


def test_lift_reasons_match_irregular_masks():
    # Relative curvature spreads, and curvature ratios of either sign, from
    # 1e-9 to 1e-5 straddle UMBILIC_TOL and CURVATURE_FLOOR (both 1e-7).
    # regularity gives a point a reason exactly where irregular_masks flags it.
    U = mesh(2, 1e-5, 3)
    flagged_total = 0
    for t in np.logspace(-9, -5, 17):
        for a2 in (0.7 * (1.0 + t), 0.7 * t, -0.7 * t):
            chart = quadric(0.7, a2)
            _, II, _, W = forms(chart, U)
            umbilic, vanishing = irregular_masks(principal_arrays(W, II)[0])
            flagged_total += int(np.sum(umbilic | vanishing))
            reason = pointwise(chart, U).reason
            assert np.array_equal(reason == IRREGULAR[1], umbilic)
            assert np.array_equal(reason == IRREGULAR[2], vanishing & ~umbilic)
            assert np.array_equal(reason != "", umbilic | vanishing)
    assert 0 < flagged_total < 17 * 3 * 9
