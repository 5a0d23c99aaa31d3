import numpy as np
import pytest

from lagkit import fd
from lagkit.charts import (
    Chart,
    FdConfig,
    curvature_line_check,
    forms_arrays,
    irregular_masks,
    jet_arrays,
    principal_arrays,
    radius_traces,
)
from lagkit.errors import (
    ImmersionError,
    MarginError,
    UmbilicError,
    VanishingCurvatureError,
)
from lagkit.families import sphere_chart
from lagkit.frames import lift_arrays
from tests.conftest import graph_chart, mesh


def quadric(a1, a2, cross=0.0):
    def h(U):
        return a1 * U[..., 0] ** 2 + a2 * U[..., 1] ** 2 + cross * U[..., 0] * U[..., 1]

    def hg(U):
        return np.stack(
            [2 * a1 * U[..., 0] + cross * U[..., 1],
             2 * a2 * U[..., 1] + cross * U[..., 0]],
            axis=-1,
        )

    def hh(U):
        m = U.shape[0]
        out = np.empty((m, 2, 2))
        out[:, 0, 0] = 2 * a1
        out[:, 1, 1] = 2 * a2
        out[:, 0, 1] = out[:, 1, 0] = cross
        return out

    return graph_chart(h, hg, hh)


def point(u):
    """A one-point batch of shape (1, n)."""
    return np.asarray(u, dtype=float)[None, :]


def forms(chart, U):
    """(I, II, III) of a chart on a batch of points."""
    _, dx, ddx, xi = jet_arrays(chart, U)
    return forms_arrays(dx, ddx, xi)


def black_box(chart, step=1e-4, scheme="central-4th-order"):
    """Strip the exact jet/normal so finite differences are exercised."""
    return Chart(
        n=chart.n,
        domain=chart.domain,
        evaluator=chart.evaluator,
        fd=FdConfig(step=step, scheme=scheme),
        name=chart.name + "-fd",
    )


def test_hilf_value_at_origin(hilf2):
    x, _, _, xi = jet_arrays(hilf2, point([0.0, 0.0]))
    assert np.allclose(x[0], 0.0)
    assert np.allclose(xi[0], [-1.0, 0.0, 0.0])


def test_polynomial_second_partials_exact():
    chart = quadric(0.5, 0.0)  # x = (u1, u2, u1^2 / 2): dd x_3 = diag(1, 0)
    _, _, ddx, _ = jet_arrays(black_box(chart), point([0.0, 0.0]))
    assert np.allclose(ddx[0, ..., 2], np.diag([1.0, 0.0]), atol=1e-7)
    assert np.allclose(ddx[0, ..., :2], 0.0, atol=1e-7)


def test_torus_value(torus21):
    x, _, _, _ = jet_arrays(torus21, point([0.0, 0.0]))
    assert np.allclose(x[0], [3.0, 0.0, 0.0])


def test_margin_error(torus21):
    with pytest.raises(MarginError):
        jet_arrays(black_box(torus21), point([0.0, np.pi / 3 - 1e-6]))


def test_rank_deficient_jacobian_rejected():
    def collapse(U):
        U = np.atleast_2d(U)
        s = U[:, 0] + U[:, 1]
        return np.stack([s, s, s**2], axis=-1)

    chart = Chart(n=2, domain=((-1, 1), (-1, 1)), evaluator=collapse)
    with pytest.raises(ImmersionError):
        jet_arrays(chart, point([0.1, 0.2]))


def test_paraboloid_forms_identity():
    chart = quadric(0.5, 0.5)
    I, II, III = forms(chart, point([0.0, 0.0]))
    assert np.allclose(I[0], np.eye(2), atol=1e-12)
    assert np.allclose(np.abs(II[0]), np.eye(2), atol=1e-12)
    assert np.allclose(III[0], np.eye(2), atol=1e-12)


def test_torus_first_form(torus21):
    I, II, _ = forms(torus21, point([0.0, 0.0]))
    assert np.allclose(I[0], np.diag([9.0, 1.0]), atol=1e-12)
    assert np.allclose(II[0], II[0].T, atol=1e-12)


def test_second_form_symmetric_generic(generic_chart, generic_points):
    _, II, _ = forms(generic_chart, generic_points)
    assert np.max(np.abs(II - np.swapaxes(II, -1, -2))) <= 1e-10


def test_torus_principal_curvatures(torus21):
    I, II, _ = forms(torus21, point([0.0, 0.0]))
    k, _ = principal_arrays(I, II)
    assert np.allclose(sorted(k[0]), [1.0 / 3.0, 1.0], atol=1e-12)


def test_frame_radii_arithmetic():
    # curvatures {1, 2} at the origin of a quadric graph
    chart = quadric(0.5, 1.0)
    lift = lift_arrays(chart, point([0.0, 0.0]))
    k = np.sort(np.abs(lift.k[0]))
    assert np.allclose(k, [1.0, 2.0], atol=1e-12)
    r_i = np.sort(np.abs(lift.r_i[0]))
    assert np.allclose(r_i, [0.5, 1.0], atol=1e-12)
    assert abs(abs(lift.r[0]) - 0.75) <= 1e-12
    assert abs(lift.rho[0] - np.sqrt(0.125)) <= 1e-12


def test_mean_radius_centers_radii(generic_chart, generic_points):
    lift = lift_arrays(generic_chart, generic_points)
    centered = np.abs(np.sum(lift.r[:, None] - lift.r_i, axis=1))
    assert np.all(centered <= 1e-12 * np.sum(np.abs(lift.r_i), axis=1))


def test_directions_orthonormal_in_first_form(generic_chart, generic_points):
    I, II, _ = forms(generic_chart, generic_points)
    _, e = principal_arrays(I, II)
    gram = np.einsum("mia,mab,mjb->mij", e, I, e)
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-8


def test_principal_direction_derivative_relation(hilf3):
    # e_i(xi) = -k_i e_i(x) along every principal direction
    U = mesh(3, 0.3, 2)
    _, dx, ddx, xi = jet_arrays(hilf3, U)
    k, e = principal_arrays(*forms_arrays(dx, ddx, xi)[:2])
    dxi = fd.grad_field(hilf3.normal, U, 1e-5, 4)
    for i in range(3):
        lhs = np.einsum("ma,mad->md", e[:, i], dxi)
        rhs = -k[:, i, None] * np.einsum("ma,mad->md", e[:, i], dx)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_sphere_is_umbilic():
    with pytest.raises(UmbilicError):
        lift_arrays(sphere_chart(1.0), point([0.05, -0.03]))


def test_vanishing_curvature_rejected():
    cylinder_like = quadric(0.5, 0.0)
    with pytest.raises(VanishingCurvatureError):
        lift_arrays(cylinder_like, point([0.0, 0.0]))


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


def test_curvature_lines_hilf(hilf3):
    assert curvature_line_check(hilf3, mesh(3, 0.4, 3), 1e-8)


def test_curvature_lines_torus(torus21, torus_points):
    assert curvature_line_check(torus21, torus_points, 1e-8)


def test_rotated_chart_fails_curvature_lines(hilf3):
    theta = np.pi / 6
    R = np.array(
        [[np.cos(theta), -np.sin(theta), 0.0],
         [np.sin(theta), np.cos(theta), 0.0],
         [0.0, 0.0, 1.0]]
    )
    rotated = Chart(
        n=3,
        domain=hilf3.domain,
        evaluator=lambda U: hilf3.evaluator(np.atleast_2d(U) @ R.T),
        name="rotated",
    )
    assert not curvature_line_check(rotated, mesh(3, 0.2, 3), 1e-8)


@pytest.mark.parametrize(
    "scheme,nominal", [("central-2nd-order", 2.0), ("central-4th-order", 4.0)]
)
def test_first_derivative_convergence_order(torus21, scheme, nominal):
    u = np.array([[0.4, 0.3]])
    _, dx_exact, _ = torus21.jet(u)
    steps = [0.04, 0.02, 0.01]
    errs = []
    for h in steps:
        chart = black_box(torus21, step=h, scheme=scheme)
        dx = fd.grad_field(chart.evaluator, u, h, chart.fd.first_order)
        errs.append(np.max(np.abs(dx - dx_exact)))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert abs(slope - nominal) <= 0.5


def test_second_derivative_convergence_order(torus21):
    u = np.array([[0.4, 0.3]])
    _, _, ddx_exact = torus21.jet(u)
    steps = [0.04, 0.02, 0.01]
    errs = []
    for h in steps:
        ddx = fd.hess_field(torus21.evaluator, u, h, 2)
        errs.append(np.max(np.abs(ddx - ddx_exact)))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert abs(slope - 2.0) <= 0.5


def test_fd_jets_match_exact_jets(hilf3):
    U = mesh(3, 0.3, 2)[:4]
    _, dx, ddx, xi = jet_arrays(hilf3, U)
    _, dx_fd, ddx_fd, xi_fd = jet_arrays(black_box(hilf3), U)
    assert np.max(np.abs(dx - dx_fd)) <= 1e-10
    assert np.max(np.abs(ddx - ddx_fd)) <= 1e-6
    assert np.max(np.abs(np.abs(np.sum(xi * xi_fd, axis=1)) - 1.0)) <= 1e-10


def test_unit_normal(hilf3):
    _, dx, _, xi = jet_arrays(hilf3, point([0.2, -0.1, 0.3]))
    assert abs(np.linalg.norm(xi[0]) - 1.0) <= 1e-10
    assert np.max(np.abs(dx[0] @ xi[0])) <= 1e-10


# The factor kernel: I = dx dx^T is factored as L L^T in plain numpy; a
# point whose factor does not certify its conditioning keeps the LAPACK
# call (SVD rank test, LU inverse, LAPACK Cholesky) and its error.


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


def prescribed_chart(dx):
    """A chart whose exact jet is the given Jacobian batch."""
    m, n, d = dx.shape

    def jet(U):
        return np.zeros((m, d)), dx, np.zeros((m, n, n, d))

    def normal(U):
        return np.tile(np.eye(d)[-1], (m, 1))

    return Chart(n=n, domain=((-1.0, 1.0),) * n, evaluator=None, jet=jet, normal=normal)


def svd_rank_deficient(dx):
    """The plain criterion: sigma_min <= 1e-10 sigma_max."""
    sv = np.linalg.svd(dx, compute_uv=False)
    return sv[:, -1] <= 1e-10 * sv[:, 0]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rank_screen_matches_svd_criterion(n):
    rng = np.random.default_rng(400 + n)
    ratios = np.concatenate([np.logspace(-14, 0, 57), [0.0, 0.0, 1e-10, 1.1e-10, 0.9e-10]])
    for scale in (1e-3, 1.0, 1e3):
        dx = jacobians(rng, n, ratios, scale)
        dx[-6, 0] = dx[-6, 1]                 # sigma ratio 1 made exactly rank deficient
        deficient = svd_rank_deficient(dx)
        assert deficient.any() and not deficient.all()
        for i, expected in enumerate(deficient):
            chart = prescribed_chart(dx[i:i + 1])
            if expected:
                with pytest.raises(ImmersionError, match="rank deficient"):
                    jet_arrays(chart, np.zeros((1, n)))
            else:
                jet_arrays(chart, np.zeros((1, n)))
        with pytest.raises(ImmersionError, match="rank deficient"):
            jet_arrays(prescribed_chart(dx), np.zeros((len(dx), n)))
        healthy = dx[~deficient]
        jet_arrays(prescribed_chart(healthy), np.zeros((len(healthy), n)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rank_screen_one_bad_point_among_many(n):
    rng = np.random.default_rng(410 + n)
    ratios = np.exp(rng.uniform(np.log(1e-3), 0.0, 2000))
    ratios[1234] = 1e-12
    dx = jacobians(rng, n, ratios)
    assert svd_rank_deficient(dx).tolist().count(True) == 1
    with pytest.raises(ImmersionError, match="rank deficient"):
        jet_arrays(prescribed_chart(dx), np.zeros((len(dx), n)))


@pytest.mark.parametrize("n", [2, 3])
def test_non_finite_jacobian_raises_immersion_error(n):
    # A NaN row has a NaN pivot, so the screen never clears it; the rest
    # of the batch is cleared and skips the SVD.
    dx = jacobians(np.random.default_rng(420 + n), n, np.full(50, 0.5))
    dx[17, 1] = np.nan
    with pytest.raises(ImmersionError, match="not finite"):
        jet_arrays(prescribed_chart(dx), np.zeros((len(dx), n)))
    jet_arrays(prescribed_chart(np.delete(dx, 17, axis=0)), np.zeros((len(dx) - 1, n)))


def spd_batch(rng, n, m=500):
    """dx with singular values in [0.3, 3], ddx and unit normals xi."""
    dx = jacobians(rng, n, rng.uniform(0.1, 1.0, m), scale=3.0)
    ddx = rng.standard_normal((m, n, n, n + 1))
    xi = rng.standard_normal((m, n + 1))
    return dx, ddx, xi / np.linalg.norm(xi, axis=-1, keepdims=True)


def relative_error(got, want):
    scale = np.max(np.abs(want), axis=tuple(range(1, want.ndim)), keepdims=True)
    return np.max(np.abs(got - want) / scale)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_forms_match_inverse_reference(n):
    dx, ddx, xi = spd_batch(np.random.default_rng(420 + n), n)
    I, II, III = forms_arrays(dx, ddx, xi)
    I_ref = np.einsum("mia,mja->mij", dx, dx)
    II_ref = np.einsum("mija,ma->mij", ddx, xi)
    II_ref = 0.5 * (II_ref + np.swapaxes(II_ref, -1, -2))
    III_ref = np.einsum("mij,mjk,mkl->mil", II_ref, np.linalg.inv(I_ref), II_ref)
    assert relative_error(I, I_ref) <= 1e-12
    assert relative_error(II, II_ref) <= 1e-12
    assert relative_error(III, III_ref) <= 1e-12
    assert np.array_equal(III, np.swapaxes(III, -1, -2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_principal_match_eigh_reference(n):
    dx, ddx, xi = spd_batch(np.random.default_rng(430 + n), n)
    I, II, _ = forms_arrays(dx, ddx, xi)
    k, dirs = principal_arrays(I, II)
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


def test_unscreened_points_keep_lapack_path():
    rng = np.random.default_rng(440)
    dx, ddx, xi = spd_batch(rng, 3, m=50)
    dx[7] = jacobians(rng, 3, [1e-6])[0]          # det(I) / tr(I)^3 ~ 1e-12
    I, II, III = forms_arrays(dx, ddx, xi)
    ref = II[7] @ np.linalg.inv(I[7]) @ II[7]
    assert np.array_equal(III[7], 0.5 * (ref + ref.T))
    k, dirs = principal_arrays(I, II)
    assert np.all(np.isfinite(k)) and np.all(np.isfinite(dirs))

    singular = dx.copy()
    singular[3, 1] = singular[3, 0]
    with pytest.raises(ImmersionError, match="singular first fundamental form"):
        forms_arrays(singular, ddx, xi)
    indefinite = I.copy()
    indefinite[5] = np.diag([1.0, -1.0, 2.0])
    with pytest.raises(ImmersionError, match="not positive definite"):
        principal_arrays(indefinite, II)


# The trace route: r and rho of the radii from S = L3^-1 II L3^-T, and the
# regularity screen that lets a cloud point skip the principal decomposition.


def assert_traces_match_eigh(I, II, III):
    """``radius_traces`` against r and rho of the ``eigh`` radii."""
    r, rho, _ = radius_traces(I, II, III)
    k = principal_arrays(I, II)[0]
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
    assert_traces_match_eigh(*forms(quadric(1.0, 2.5, cross), U))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_radius_traces_match_eigh_random_forms(n):
    dx, ddx, xi = spd_batch(np.random.default_rng(460 + n), n)
    assert_traces_match_eigh(*forms_arrays(dx, ddx, xi))


@pytest.mark.parametrize("spread", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
def test_radius_traces_match_eigh_near_umbilic(spread):
    # Within 0.1 sqrt(spread) of the origin the relative curvature spread
    # of the graph stays within 5% of its value at the origin.
    chart = quadric(0.7, 0.7 * (1.0 + spread))
    I, II, III = forms(chart, mesh(2, 0.1 * np.sqrt(spread), 5))
    k = principal_arrays(I, II)[0]
    gap = (k[:, 0] - k[:, -1]) / np.max(np.abs(k), axis=-1)
    assert np.allclose(gap, spread, rtol=0.05)
    assert_traces_match_eigh(I, II, III)


def test_regularity_screen_clears_no_flagged_point():
    # Relative curvature spreads, and curvature ratios of either sign, from
    # 1e-9 to 1e-5 straddle UMBILIC_TOL and CURVATURE_FLOOR (both 1e-7).
    # lift_arrays raises exactly where irregular_masks flags a point.
    U = mesh(2, 1e-5, 3)
    cleared_total = flagged_total = 0
    for t in np.logspace(-9, -5, 17):
        for a2 in (0.7 * (1.0 + t), 0.7 * t, -0.7 * t):
            chart = quadric(0.7, a2)
            I, II, III = forms(chart, U)
            _, _, cleared = radius_traces(I, II, III)
            umbilic, vanishing = irregular_masks(principal_arrays(I, II)[0])
            assert not np.any(cleared & (umbilic | vanishing))
            cleared_total += int(np.sum(cleared))
            flagged_total += int(np.sum(umbilic | vanishing))
            if np.any(umbilic):
                with pytest.raises(UmbilicError):
                    lift_arrays(chart, U)
            elif np.any(vanishing):
                with pytest.raises(VanishingCurvatureError):
                    lift_arrays(chart, U)
            else:
                lift_arrays(chart, U)
    assert cleared_total > 0 and flagged_total > 0
