"""Parametrized hypersurfaces, derivative jets and the curvature frame.

A ``Chart`` holds two maps, a hypersurface x: U in R^n -> R^(n+1) and
its analytic normal, each written once for float points (..., n) and
``taylor.Taylor`` seeds alike and casting nothing.  ``closed_form``
builds it from them, so its jet is the map's exact Taylor polynomial and
a symmetry of the chart is one composition of its maps; curvature signs
follow the orientation of the normal.

``forms_arrays`` factors I = dx dx^T = L L^T once per point in plain
batched numpy (loops over the n columns) and inverts the factor once,
by forward substitution: III = B^T B with B = W II, W = L^-1, and it
returns W with the forms, for ``principal_arrays`` to read the frame
off W II W^T.  ``radius_traces`` takes r and rho
from traces of S = L3^-1 II L3^-T (III = L3 L3^T), independently of
``eigh``.  As lambda_min / lambda_max >= det(I) / tr(I)^n = prod L_jj^2
/ tr(I)^n, a point above ``SCREEN`` (1e-8) has sigma_min / sigma_max >
1e-4 and passes the rank test sigma_min <= 1e-10 sigma_max; only the
other points take the SVD.
Those that fail it, and those whose factor meets a NaN or non-positive
pivot, are masked; Cholesky is backward stable on every matrix it
completes, so the factor serves every other point.  ``regularity``
takes the forms of a jet's values and runs ``eigh`` of L^-1 II L^-T
once on every other point, which gives the principal frame and,
through ``irregular_masks``, each point one reason from ``IRREGULAR``,
the last of them an invariant metric rho^2 III that is not positive
definite; ``invariants.analyze`` keeps the regular points, the suite
reports the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import taylor
from .errors import ImmersionError

__all__ = [
    "Chart",
    "closed_form",
    "jet_arrays",
    "forms_arrays",
    "radius_traces",
    "regularity",
    "IRREGULAR",
    "principal_arrays",
    "irregular_masks",
]

# Relative thresholds flagging the regimes the theory excludes: umbilic
# points (all curvatures equal) and vanishing principal curvatures.
UMBILIC_TOL = 1e-7
CURVATURE_FLOOR = 1e-7

# Lower bound on det(I) / tr(I)^n above which a point skips the SVD rank test.
SCREEN = 1e-8

# The degree of the jet of x that ``jet_arrays`` returns, the one ``analyze`` reads.
JET_DEGREE = 5

# The reasons ``regularity`` gives an irregular point, the first that holds.
IRREGULAR = ("rank-deficient Jacobian", "umbilic point", "vanishing principal curvature",
             "invariant metric not positive definite")


@dataclass(frozen=True, eq=False)
class Chart:
    """A parametrized hypersurface and its exact derivative data.

    ``evaluator`` maps parameter points (..., n) to points (..., n+1)
    and ``normal`` to a normal field (..., n+1), which ``jet_arrays``
    normalises; both take float arrays and Taylor seeds alike and cast
    nothing.  ``jet(U, degree)`` returns the Taylor polynomial of x about
    the points U (m, n) to total degree ``degree`` (a ``taylor.Taylor`` of
    value shape (m, n+1)); ``closed_form`` builds a chart from its two maps.
    """

    n: int
    evaluator: Callable
    jet: Callable
    normal: Callable
    name: str = ""
    params: dict = field(default_factory=dict)


def closed_form(x_map: Callable, normal: Callable, **fields) -> Chart:
    """The chart whose evaluator is ``x_map`` and whose normal is
    ``normal``, two maps that take float points (..., n) and Taylor seeds
    alike; its jet is ``x_map`` of ``taylor.variables``.  ``fields`` are
    the other fields of ``Chart``.  Every parameter point is admitted:
    ``regularity`` reports the points the theory excludes one by one."""
    return Chart(**fields, evaluator=x_map, normal=normal,
                 jet=lambda U, degree: x_map(taylor.variables(U, degree)))


def _cholesky(I: np.ndarray) -> np.ndarray:
    """Lower factors L with I = L L^T, batched, looping over the n columns.

    A pivot that is not positive leaves 0 or NaN on the diagonal of its
    point's factor, and NaN below it.
    """
    L = np.zeros_like(I)
    with np.errstate(invalid="ignore", divide="ignore"):
        for j in range(I.shape[-1]):
            row = L[:, j, :j]
            L[:, j, j] = np.sqrt(I[:, j, j] - np.sum(row * row, axis=-1))
            below = I[:, j + 1:, j] - np.sum(L[:, j + 1:, :j] * row[:, None, :], axis=-1)
            L[:, j + 1:, j] = below / L[:, j, j, None]
    return L


def _lower_inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 of a batch of lower-triangular factors, by forward substitution."""
    n = L.shape[-1]
    W = np.zeros_like(L)
    with np.errstate(invalid="ignore", divide="ignore"):
        for i in range(n):
            W[:, i, :i] = -np.sum(L[:, i, :i, None] * W[:, :i, :i], axis=1) / L[:, i, i, None]
            W[:, i, i] = 1.0 / L[:, i, i]
    return W


def _transpose(M: np.ndarray) -> np.ndarray:
    """Contiguous transposes of a batch of matrices; matmul is several
    times slower on the strided view."""
    return np.ascontiguousarray(np.swapaxes(M, -1, -2))


def jet_arrays(chart: Chart, U: np.ndarray):
    """Batched jets (x, dx, ddx, xi) at U of shape (m, n): x the Taylor
    polynomial of degree ``JET_DEGREE`` about U, of value shape (m, n+1);
    its partials dx (m, n, n+1) and ddx (m, n, n, n+1) as values, the only
    ones the lift reads; the chart's normal normalised, xi (m, n+1).
    ``forms_arrays`` tests the rank of the Jacobian."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.shape[1] != chart.n:
        raise ImmersionError(
            f"parameter points of dimension {U.shape[1]} on an n={chart.n} chart"
        )
    x = chart.jet(U, JET_DEGREE)
    _, dx, ddx = x.truncate(2).partials()
    xi = np.asarray(chart.normal(U))
    with np.errstate(invalid="ignore", divide="ignore"):
        xi = xi / np.linalg.norm(xi, axis=-1, keepdims=True)
    return x, dx, ddx, xi


def forms_arrays(dx: np.ndarray, ddx: np.ndarray, xi: np.ndarray):
    """Batched fundamental forms, rank mask and inverse factor (I, II, III,
    deficient, W).

    ``deficient`` marks sigma_min <= 1e-10 sigma_max, tested by SVD only
    where the screen prod L_jj^2 / tr(I)^n > SCREEN fails (a non-finite
    Jacobian there raises ImmersionError), and every point whose factor
    of I meets a NaN or non-positive pivot.  I = L L^T with L lower and
    W = L^-1; II = ddx . xi is exactly symmetric, as ``Taylor.partials``
    reads d_i d_j x and d_j d_i x off one coefficient; III = B^T B with B =
    W II is exactly symmetric, and NaN on deficient rows.
    """
    I = dx @ _transpose(dx)
    II = np.einsum("mija,ma->mij", ddx, xi)
    L = _cholesky(I)
    pivots = np.diagonal(L, axis1=-2, axis2=-1)
    tr = np.trace(I, axis1=-2, axis2=-1)
    W = _lower_inverse(L)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.prod(pivots**2 / tr[:, None], axis=-1)
        B = W @ II
        III = _transpose(B) @ B
    rest = ~(ratio > SCREEN)
    if not np.all(np.isfinite(dx[rest])):
        raise ImmersionError("Jacobian is not finite at a sampled point")
    sv = np.linalg.svd(dx[rest], compute_uv=False)
    deficient = rest.copy()
    deficient[rest] = (sv[:, -1] <= 1e-10 * sv[:, 0]) | ~np.all(pivots[rest] > 0.0, axis=-1)
    III[deficient] = np.nan
    return I, II, III, deficient, W


def radius_traces(II: np.ndarray, III: np.ndarray):
    """(r, rho): mean radius and rho = |r - r_i|, from traces.

    The radii r_i are the eigenvalues of R = III^-1 II and so of the
    symmetric S = L3^-1 II L3^-T with III = L3 L3^T.  Then r = tr S / n
    and rho = |S - r Id|_F; centring before squaring keeps the relative
    error of rho near eps |r| / rho.  As III has the k_i^2 as eigenvalues,
    both also err by about eps kappa^2 with kappa = max |k_i| / min |k_i|
    (``eigh`` errs by eps kappa).  The route is independent of ``eigh``,
    so the checks that read b = (r - r_i) / rho compare the two.  A point
    with a NaN or non-positive pivot of III has NaN r and rho.
    """
    n = II.shape[-1]
    W3 = _lower_inverse(_cholesky(III))
    with np.errstate(invalid="ignore", over="ignore"):
        S = W3 @ II @ _transpose(W3)
    r = np.trace(S, axis1=-2, axis2=-1) / n
    D = S - r[:, None, None] * np.eye(n)
    rho = np.sqrt(np.sum(D * D, axis=(-2, -1)))
    return r, rho


def regularity(dx: np.ndarray, ddx: np.ndarray, xi: np.ndarray):
    """(II, III, r, rho, k, e, reason): the forms of ``forms_arrays``, r and
    rho from ``radius_traces``, the principal frame and one reason per point.

    ``principal_arrays`` runs once on every point that is not
    ``deficient``; k and e are NaN on the others.  ``reason`` is "" at a
    regular point, else the first entry of ``IRREGULAR`` that holds there,
    ``irregular_masks`` deciding the second and third; the invariant
    metric rho^2 III counts as positive definite where its diagonal is
    positive and r and rho are finite.
    """
    _, II, III, deficient, W = forms_arrays(dx, ddx, xi)
    r, rho = radius_traces(II, III)
    k, e = np.full(II.shape[:2], np.nan), np.full(II.shape, np.nan)
    rest = ~deficient
    k[rest], e[rest] = principal_arrays(W[rest], II[rest])
    umbilic, vanishing = irregular_masks(k)
    reason = np.where(deficient, IRREGULAR[0], "").astype(object)
    reason[vanishing] = IRREGULAR[2]
    reason[umbilic] = IRREGULAR[1]
    with np.errstate(invalid="ignore", over="ignore"):
        g_diagonal = rho[:, None] ** 2 * np.diagonal(III, axis1=-2, axis2=-1)
    positive = np.all(g_diagonal > 0.0, axis=-1) & np.isfinite(r) & np.isfinite(rho)
    reason[(reason == "") & ~positive] = IRREGULAR[3]
    return II, III, r, rho, k, e, reason


def _fix_direction_signs(dirs: np.ndarray) -> np.ndarray:
    """Scale each direction so its first nonzero component is positive."""
    mags = np.abs(dirs)
    thresh = 1e-12 * np.max(mags, axis=-1)
    lead = dirs[..., 0]
    for c in reversed(range(dirs.shape[-1])):
        lead = np.where(mags[..., c] > thresh, dirs[..., c], lead)
    sign = np.where(lead < 0, -1.0, 1.0)
    return dirs * sign[..., None]


def principal_arrays(W: np.ndarray, II: np.ndarray):
    """Batched principal decomposition II e = k I e, from the inverse
    factor W = L^-1 of I = L L^T that ``forms_arrays`` returns.

    Returns (k, dirs) with curvatures sorted descending and dirs[m, i, :]
    the I-orthonormal coefficient vector of the i-th direction, from
    ``eigh`` of W II W^T.  The umbilic / vanishing-curvature test is
    ``irregular_masks``.
    """
    Wt = _transpose(W)
    A = W @ II @ Wt
    A = 0.5 * (A + np.swapaxes(A, -1, -2))
    w, Q = np.linalg.eigh(A)
    E = Wt @ Q
    k = w[..., ::-1]
    dirs = np.swapaxes(E, -1, -2)[..., ::-1, :]
    return k, _fix_direction_signs(dirs)


def irregular_masks(k: np.ndarray):
    """Masks (umbilic, vanishing) of the points the theory excludes.

    ``k`` holds descending curvatures on its last axis.  A point is
    umbilic when all curvatures coincide and vanishing when some
    curvature is numerically zero, both relative to the largest |k_i|.
    """
    kmax = np.max(np.abs(k), axis=-1)
    umbilic = (k[..., 0] - k[..., -1]) < UMBILIC_TOL * kmax
    vanishing = np.min(np.abs(k), axis=-1) <= CURVATURE_FLOOR * kmax
    return umbilic, vanishing
