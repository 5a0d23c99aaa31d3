"""Parametrized hypersurfaces, derivative jets and the curvature frame.

A ``Chart`` evaluates a hypersurface x: U in R^n -> R^(n+1) on batches of
parameter points.  Built-in charts carry exact analytic jets; black-box
charts fall back to central finite differences configured by ``FdConfig``.
The unit normal is the normalised generalized cross product of the
Jacobian rows taken in parameter order, unless the chart supplies its own
normal field; ``flip_normal`` reverses either choice and all curvature
signs are reported relative to the resulting orientation.

The pointwise linear algebra rests on one factor per point: the first
form I = dx dx^T is factored as I = L L^T in plain numpy over the whole
batch (the loops run over the n columns only) and L^-1 is formed by
forward substitution.  III = B^T B with B = L^-1 II.  The curvature
radii r_i enter the lift only through their mean r and their spread
rho, which ``radius_traces`` takes from traces of S = L3^-1 II L3^-T
(III = L3 L3^T) with no LAPACK call; the same factors certify most
points regular.  The principal decomposition, the eigendecomposition of
A = L^-1 II L^-T with directions L^-T Q, runs ``eigh`` only where a
frame or single curvature is read (``cross_normal`` adds ``det`` calls
on charts without a normal field).  Each kernel factors its own I and
drops the factor on return.
The same factor screens the conditioning: since lambda_min / lambda_max
>= det(I) / tr(I)^n and det(I) = prod L_jj^2, a point with
prod L_jj^2 / tr(I)^n > ``SCREEN`` (1e-8) has sigma_min / sigma_max > 1e-4
and cannot fail the rank test sigma_min <= 1e-10 sigma_max.  Only the
points the screen does not clear, including those with a NaN or
non-positive pivot, go through the LAPACK call the kernel replaced (the
SVD rank test, the LU inverse, the LAPACK Cholesky factor), so they
raise exactly what that call raised; a non-finite Jacobian raises
ImmersionError before its SVD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import fd
from .errors import ImmersionError

__all__ = [
    "FdConfig",
    "Chart",
    "jet_arrays",
    "forms_arrays",
    "radius_traces",
    "principal_arrays",
    "irregular_masks",
    "curvature_line_check",
    "cross_normal",
]

SCHEMES = {"central-2nd-order": 2, "central-4th-order": 4}

# Relative thresholds flagging the regimes the theory excludes: umbilic
# points (all curvatures equal) and vanishing principal curvatures.
UMBILIC_TOL = 1e-7
CURVATURE_FLOOR = 1e-7

# Factor by which the trace bounds of ``radius_traces`` must beat both
# thresholds before a point skips the principal decomposition.
REGULAR_MARGIN = 10.0

# Lower bound on det(I) / tr(I)^n above which the Cholesky factor of I
# serves a point; the points below it keep the LAPACK call and its test.
SCREEN = 1e-8


@dataclass(frozen=True)
class FdConfig:
    """Step and scheme for finite-difference jets.

    First partials use the scheme's order at ``step``; second partials
    always use the 2nd-order stencils at the same step, which balances
    truncation against roundoff for O(1)-scaled charts.
    """

    step: float = 1e-4
    scheme: str = "central-4th-order"

    def __post_init__(self):
        if self.step <= 0:
            raise ValueError("fd step must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")

    @property
    def first_order(self) -> int:
        return SCHEMES[self.scheme]


@dataclass(frozen=True, eq=False)
class Chart:
    """A parametrized hypersurface with optional exact derivative data.

    ``evaluator`` maps parameter batches (m, n) to points (m, n+1).
    ``jet`` if present returns (x, dx, ddx) exactly, with dx of shape
    (m, n, n+1) and ddx of shape (m, n, n, n+1).  ``normal`` if present
    returns the unit normal field (m, n+1).
    """

    n: int
    domain: tuple
    evaluator: Callable
    jet: Optional[Callable] = None
    normal: Optional[Callable] = None
    flip_normal: bool = False
    fd: FdConfig = field(default_factory=FdConfig)
    name: str = ""
    params: dict = field(default_factory=dict)

    @property
    def orientation(self) -> str:
        base = "analytic-normal" if self.normal is not None else "cross-product"
        return base + (" (flipped)" if self.flip_normal else "")


def points_first(M: np.ndarray) -> np.ndarray:
    """A contiguous copy of ``M`` with its last axis, the points, moved first.

    Exact jets build their partials with the points on the last axis, so
    each broadcast runs its inner loop over the batch, and return them
    through this.
    """
    return np.ascontiguousarray(np.moveaxis(M, -1, 0))


def cross_normal(dx: np.ndarray) -> np.ndarray:
    """Generalized cross product of Jacobian rows, batched.

    For dx of shape (m, n, n+1) returns the (unnormalised) normal with
    components nu_a = (-1)^(n+a) det(dx with column a removed), the usual
    cofactor-expansion convention in parameter order.
    """
    m, n, d = dx.shape
    out = np.empty((m, d))
    cols = np.arange(d)
    for a in range(d):
        minor = dx[:, :, cols != a]
        out[:, a] = (-1) ** (n + a) * np.linalg.det(minor)
    return out


def _fd_jet(chart: Chart, U: np.ndarray):
    h = chart.fd.step
    order = chart.fd.first_order
    x = np.asarray(chart.evaluator(U))
    dx = fd.grad_field(chart.evaluator, U, h, order)
    ddx = fd.hess_field(chart.evaluator, U, h, 2)
    return x, dx, ddx


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


def _cleared(L: np.ndarray, I: np.ndarray) -> np.ndarray:
    """Points whose factor bounds the condition of I: prod L_jj^2 / tr(I)^n > SCREEN.

    As lambda_min / lambda_max >= det(I) / tr(I)^n, a cleared point has
    sigma_min / sigma_max > 1e-4 for the Jacobian with I = dx dx^T.  A
    point with a non-positive or NaN pivot is never cleared.
    """
    tr = np.trace(I, axis1=-2, axis2=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.prod(np.diagonal(L, axis1=-2, axis2=-1) ** 2 / tr[:, None], axis=-1)
    return ratio > SCREEN


def _inverse_factor(I: np.ndarray):
    """(L^-1, rest) for I = L L^T; ``rest`` marks the points the screen does not clear."""
    L = _cholesky(I)
    return _lower_inverse(L), ~_cleared(L, I)


def jet_arrays(chart: Chart, U: np.ndarray):
    """Batched jets: returns (x, dx, ddx, xi) for U of shape (m, n).

    Raises MarginError if a finite-difference stencil would leave the
    domain and ImmersionError on a rank-deficient or non-finite Jacobian.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    if U.shape[1] != chart.n:
        raise ImmersionError(
            f"parameter points of dimension {U.shape[1]} on an n={chart.n} chart"
        )
    reach = 0.0
    if chart.jet is None:
        reach = 2 * chart.fd.step
    fd.check_margin(chart.domain, U, reach)

    if chart.jet is not None:
        x, dx, ddx = chart.jet(U)
    else:
        x, dx, ddx = _fd_jet(chart, U)

    I = dx @ _transpose(dx)
    rest = ~_cleared(_cholesky(I), I)
    if np.any(rest):
        dx_rest = dx[rest]
        if not np.all(np.isfinite(dx_rest)):
            raise ImmersionError("Jacobian is not finite at a sampled point")
        sv = np.linalg.svd(dx_rest, compute_uv=False)
        if np.any(sv[:, -1] <= 1e-10 * sv[:, 0]):
            raise ImmersionError("Jacobian is rank deficient at a sampled point")

    if chart.normal is not None:
        xi = np.asarray(chart.normal(U))
    else:
        xi = cross_normal(dx)
    xi = xi / np.linalg.norm(xi, axis=-1, keepdims=True)
    if chart.flip_normal:
        xi = -xi
    return x, dx, ddx, xi


def forms_arrays(dx: np.ndarray, ddx: np.ndarray, xi: np.ndarray):
    """Batched fundamental forms (I, II, III) from jet arrays.

    III = II I^-1 II = B^T B with B = L^-1 II, exactly symmetric.  Points
    the conditioning screen does not clear take the LU inverse of I.
    """
    I = dx @ _transpose(dx)
    II = np.einsum("mija,ma->mij", ddx, xi)
    II = 0.5 * (II + np.swapaxes(II, -1, -2))
    W, rest = _inverse_factor(I)
    B = W @ II
    III = _transpose(B) @ B
    if np.any(rest):
        try:
            I_inv = np.linalg.inv(I[rest])
        except np.linalg.LinAlgError as exc:
            raise ImmersionError("singular first fundamental form") from exc
        III_rest = II[rest] @ I_inv @ II[rest]
        III[rest] = 0.5 * (III_rest + np.swapaxes(III_rest, -1, -2))
    return I, II, III


def radius_traces(I: np.ndarray, II: np.ndarray, III: np.ndarray):
    """(r, rho, cleared): mean radius, rho and the regularity screen, from traces.

    The radii r_i are the eigenvalues of R = III^-1 II and so of the
    symmetric S = L3^-1 II L3^-T with III = L3 L3^T.  Then r = tr S / n
    and rho = |S - r Id|_F; centring before squaring keeps the relative
    error of rho near eps |r| / rho.  As III has the k_i^2 as eigenvalues,
    both also err by about eps kappa^2 with kappa = max |k_i| / min |k_i|
    (``eigh`` errs by eps kappa).  With Rbar = sqrt(n r^2 + rho^2) >=
    max |r_i| and |prod r_i| = sqrt(det I / det III),

        min |k_i| / max |k_i| >= |prod r_i| / Rbar^n,
        (k_0 - k_(n-1)) / max |k_i| >= (rho / sqrt n) |prod r_i| / Rbar^(n+1),

    and ``cleared`` marks the points where both bounds beat
    ``CURVATURE_FLOOR`` and ``UMBILIC_TOL`` by ``REGULAR_MARGIN``: no
    such point is flagged by ``irregular_masks``.  A point with a NaN or
    non-positive pivot of III is never cleared and has NaN r and rho.
    """
    n = I.shape[-1]
    L3 = _cholesky(III)
    W3 = _lower_inverse(L3)
    S = W3 @ II @ _transpose(W3)
    r = np.trace(S, axis1=-2, axis2=-1) / n
    D = S - r[:, None, None] * np.eye(n)
    rho = np.sqrt(np.sum(D * D, axis=(-2, -1)))
    rbar = np.sqrt(n * r * r + rho * rho)
    with np.errstate(invalid="ignore", divide="ignore"):
        # |prod r_i| / Rbar^n, one column at a time so nothing overflows
        ratio = np.prod(
            np.diagonal(_cholesky(I), axis1=-2, axis2=-1)
            / (np.diagonal(L3, axis1=-2, axis2=-1) * rbar[:, None]),
            axis=-1,
        )
        cleared = (ratio > REGULAR_MARGIN * CURVATURE_FLOOR) & (
            rho / (np.sqrt(n) * rbar) * ratio > REGULAR_MARGIN * UMBILIC_TOL
        )
    return r, rho, cleared


def _fix_direction_signs(dirs: np.ndarray) -> np.ndarray:
    """Scale each direction so its first nonzero component is positive."""
    mags = np.abs(dirs)
    thresh = 1e-12 * np.max(mags, axis=-1)
    lead = dirs[..., 0]
    for c in reversed(range(dirs.shape[-1])):
        lead = np.where(mags[..., c] > thresh, dirs[..., c], lead)
    sign = np.where(lead < 0, -1.0, 1.0)
    return dirs * sign[..., None]


def principal_arrays(I: np.ndarray, II: np.ndarray):
    """Batched principal decomposition II e = k I e.

    Returns (k, dirs) with curvatures sorted descending and dirs[m, i, :]
    the I-orthonormal coefficient vector of the i-th direction.  The
    umbilic / vanishing-curvature test is ``irregular_masks``.
    """
    W, rest = _inverse_factor(I)
    if np.any(rest):
        try:
            W[rest] = _lower_inverse(np.linalg.cholesky(I[rest]))
        except np.linalg.LinAlgError as exc:
            raise ImmersionError("first fundamental form is not positive definite") from exc
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


def curvature_line_check(chart: Chart, grid: np.ndarray, tol: float = 1e-8) -> bool:
    """Whether the coordinate directions are principal on the whole grid.

    True iff I and II are simultaneously diagonal (relative to their
    diagonal scale) at every grid point.
    """
    _, dx, ddx, xi = jet_arrays(chart, grid)
    I, II, _ = forms_arrays(dx, ddx, xi)
    idx = np.arange(chart.n)
    for M in (I, II):
        diag_scale = np.max(np.abs(np.diagonal(M, axis1=-2, axis2=-1)))
        off = M.copy()
        off[:, idx, idx] = 0.0
        if np.max(np.abs(off)) > tol * diag_scale:
            return False
    return True
