"""Invariants of the light-cone lift, computed two independent ways.

Closed forms (diagonal in the principal frame, with b_i = (r - r_i)/rho):

    B_ij = b_i delta_ij,
    C_i  = -rho^-2 r_i { e_i(r) - (r - r_i) e_i(log rho) },
    L    = two closed-form variants computed side by side (their
           constant term and direction-weight factors disagree); the
           structural computation below arbitrates between them.

Structural values are coordinate tensors, projected on the principal
frame E_i = w_i^a d_a only at a point:

    L_ij = <E_i(N), E_j(Y)>,   C_i = -<E_i(N), eta>,
    B_ij = -<Hess Y(E_i, E_j), eta>,   Hess Y_ab = Y_ab - Gamma^k_ab Y_k,

using <N,eta> = <Y,eta> = <d_a Y,eta> = 0 and <eta,P> = -1.  The
second-order vector N is assembled from the Laplace-Beltrami operator of
the invariant metric (divergence-of-gradient sign, which is the choice
consistent with <Y,N> = -1):

    N = Delta_g Y / n + <Delta_g Y, Delta_g Y> Y / (2 n^2).

nabla B is that of B_ab = rho (r III_ab - II_ab), b_i delta_ij on the
frame.  No eigenvector is differentiated, so repeated curvatures, whose
eigenspace frame ``eigh`` picks arbitrarily, change nothing.

Every partial comes from one stencil cloud per grid point (``fd.Cloud``):
the lift is evaluated once on the cloud, with r and rho from traces and
no eigendecomposition, and the first, second and third partials of its
pointwise-exact fields are contracted from those values with 4th-order
central stencils at the steps of ``FieldSteps``.  N, its
partials d_c N (from third partials of Y and second partials of g), the
Christoffel symbols and the curvature tensor of g are then assembled
algebraically; nothing is differentiated twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fd
from .charts import Chart
from .errors import InputError
from .fields import (
    MetricField,
    christoffels,
    frame_riemann,
    laplacian,
    lowered_riemann,
)
from .frames import LiftBatch, frame_coefficients, lift_arrays
from .spaces import p_vector

__all__ = [
    "FieldSteps",
    "ClassificationResult",
    "Analysis",
    "analyze",
    "metric_geometry",
    "classify_analysis",
    "classify",
]


@dataclass(frozen=True)
class FieldSteps:
    """Steps of the stencil cloud that differentiates the lift (all 4th-order central).

    ``first`` gives first partials; ``second`` is larger to keep second
    differences above the roundoff floor; ``third`` gives the third
    partials of Y that d N needs, where the roundoff of a third difference
    grows like 1/h^3.  All three stencils share one evaluation of the lift.
    """

    first: float = 1e-4
    second: float = 1e-3
    third: float = 1.5e-3


DEFAULT_STEPS = FieldSteps()


def _b_tensor(lift: LiftBatch) -> np.ndarray:
    """B_ab = rho (r III_ab - II_ab) (m, n, n), which is b_i delta_ij on the frame."""
    return lift.rho[:, None, None] * (lift.r[:, None, None] * lift.III - lift.II)


def _jets(chart: Chart, grid: np.ndarray, steps: FieldSteps, third: bool = False):
    """The lift at a grid and the partials of its pointwise-exact fields.

    Y, g, III, log rho, r and B (none needs an eigenvector) are packed
    into one field, so one evaluation of the lift on the stencil cloud
    feeds every partial.  Returns (lift, jets) with ``jets[name]`` the
    list [first, second(, third)] of partials of that field; ``lift`` holds
    the grid rows only, so reading its frame runs ``eigh`` on m points.
    """
    cloud = fd.Cloud(grid, (steps.first, steps.second, steps.third)[: 3 if third else 2])
    lift = lift_arrays(chart, cloud.points)
    fields = {
        "Y": lift.Y, "g": lift.g, "III": lift.III,
        "logrho": np.log(lift.rho), "r": lift.r, "B": _b_tensor(lift),
    }
    m = lift.u.shape[0]
    packed = np.concatenate([v.reshape(m, -1) for v in fields.values()], axis=1)
    partials = cloud.partials(packed)[1:]
    jets, start = {}, 0
    for name, v in fields.items():
        stop = start + v[0].size
        jets[name] = [d[..., start:stop].reshape(d.shape[:-1] + v.shape[1:]) for d in partials]
        start = stop
    return lift.rows(cloud.centre), jets


def _n_vector(lift: LiftBatch, jets: dict):
    """(N, Delta_g Y, Gamma^k_ab of g, Hess Y_ab = Y_ab - Gamma^k_ab Y_k) at the grid."""
    gamma = christoffels(lift.g, jets["g"][0])
    dY, ddY = jets["Y"][:2]
    hess_y = ddY - np.einsum("mkab,mkl->mabl", gamma, dY)
    delta_y = np.einsum("mab,mabl->ml", np.linalg.inv(lift.g), hess_y)
    nsq = lift.space.dot(delta_y, delta_y)
    n = lift.u.shape[1]
    N = delta_y / n + (nsq / (2.0 * n * n))[:, None] * lift.Y
    return N, delta_y, gamma, hess_y


def _metric(lift: LiftBatch, jets: dict) -> MetricField:
    riem = lowered_riemann(lift.g, jets["g"][0], jets["g"][1])
    return MetricField(riemann_frame=frame_riemann(riem, frame_coefficients(lift)))


def _n_partials(lift: LiftBatch, jets: dict, delta_y: np.ndarray, gamma: np.ndarray,
                hess_y: np.ndarray):
    """d_c N (m, c, n+4), assembled from partials of Y up to order 3 and of g up to order 2.

        d_c Delta Y = d_c g^ab (Y_ab - G^k_ab Y_k)
                      + g^ab (Y_abc - d_c G^k_ab Y_k - G^k_ab Y_kc),
        d_c N = d_c Delta Y / n + <Delta Y, d_c Delta Y> Y / n^2
                + |Delta Y|^2 Y_c / (2 n^2),

    with d_c g^ab = -g^ai d_c g_ij g^jb and d_c G from d g and d d g.
    """
    n = lift.u.shape[1]
    dY, ddY, dddY = jets["Y"]
    dg, ddg = jets["g"][:2]
    g_inv = np.linalg.inv(lift.g)
    dg_inv = -np.einsum("mai,mcij,mjb->mcab", g_inv, dg, g_inv)
    # d_c (d_i g_jl + d_j g_il - d_l g_ij), indexed [m, c, l, i, j]
    dsym = np.einsum("mcijl->mclij", ddg) + np.einsum("mcjil->mclij", ddg) - ddg
    dgamma = 0.5 * np.einsum("mkl,mclij->mckij", g_inv, dsym) - np.einsum(
        "mkp,mcpq,mqij->mckij", g_inv, dg, gamma
    )
    third_cov = (
        dddY
        - np.einsum("mckab,mkl->mabcl", dgamma, dY)
        - np.einsum("mkab,mkcl->mabcl", gamma, ddY)
    )
    d_delta = np.einsum("mcab,mabl->mcl", dg_inv, hess_y) + np.einsum(
        "mab,mabcl->mcl", g_inv, third_cov
    )
    nsq = lift.space.dot(delta_y, delta_y)
    pair = np.einsum("ml,l,mcl->mc", delta_y, lift.space.signs, d_delta)
    return (
        d_delta / n
        + np.einsum("mc,ml->mcl", pair, lift.Y) / n**2
        + (nsq / (2.0 * n * n))[:, None, None] * dY
    )


@dataclass(frozen=True)
class Analysis:
    """Every invariant field over a grid, from one stencil cloud."""

    chart: Chart
    grid: np.ndarray
    lift: LiftBatch
    N: np.ndarray              # (m, n+4)
    delta_y: np.ndarray        # (m, n+4)
    E_Y: np.ndarray            # (m, i, n+4)
    E2_Y: np.ndarray           # (m, i, j, n+4): Hess Y(E_i, E_j)
    L_structural: np.ndarray   # (m, n, n)
    C_structural: np.ndarray   # (m, n)
    B_structural: np.ndarray   # (m, n, n)
    C_closed: np.ndarray       # (m, n)
    L_closed_a: np.ndarray     # (m, n, n)
    L_closed_b: np.ndarray     # (m, n, n)
    cov_B: np.ndarray          # (m, i, j, k): B_ij,k = nabla B(E_i, E_j, E_k)
    laplace_iii_logrho: np.ndarray   # (m,)
    grad_iii_logrho_sq: np.ndarray   # (m,)
    metric: MetricField        # curvature of g from the same cloud

    @property
    def lambda_estimate(self) -> float:
        m, n = self.grid.shape
        traces = np.trace(self.L_structural, axis1=-2, axis2=-1) / n
        return float(np.median(traces))

    def structure_residual(self) -> float:
        """Max norm of Y_ab - Gamma^k_ab Y_k = L_ab Y + g_ab N + B_ab P on the frame."""
        m, n = self.grid.shape
        P = p_vector(self.lift.space).coords
        rhs = (
            np.einsum("mij,ml->mijl", self.L_structural, self.lift.Y)
            + np.einsum("ij,ml->mijl", np.eye(n), self.N)
            + np.einsum("mij,l->mijl", self.B_structural, P)
        )
        return float(np.max(np.abs(self.E2_Y - rhs)))


def analyze(chart: Chart, grid: np.ndarray, steps: FieldSteps = DEFAULT_STEPS) -> Analysis:
    """Evaluate every invariant field of the lift over a grid of points."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    m, n = grid.shape
    if n != chart.n:
        raise InputError(f"grid dimension {n} does not match chart n={chart.n}")
    lift, jets = _jets(chart, grid, steps, third=True)
    signs = lift.space.signs
    w = frame_coefficients(lift)

    dY = jets["Y"][0]                        # (m, a, d)
    dIII = jets["III"][0]
    dlogrho, ddlogrho, _ = jets["logrho"]    # (m, a), (m, a, b)
    dr = jets["r"][0]
    dB = jets["B"][0]                        # (m, c, a, b)

    N, delta_y, gamma_g, hess_y = _n_vector(lift, jets)
    dN = _n_partials(lift, jets, delta_y, gamma_g, hess_y)

    E_Y = np.einsum("mia,mal->mil", w, dY)
    E2_Y = np.einsum("mia,mjb,mabl->mijl", w, w, hess_y)
    E_N = np.einsum("mia,mal->mil", w, dN)

    L_structural = np.einsum("mil,l,mjl->mij", E_N, signs, E_Y)
    C_structural = -np.einsum("mil,l,ml->mi", E_N, signs, lift.eta)
    B_structural = -np.einsum("mijl,l,ml->mij", E2_Y, signs, lift.eta)
    # Directional derivatives along the III-orthonormal frame E'_i = rho E_i
    # and the unit principal directions e_i = E'_i / r_i.
    w_iii = lift.rho[:, None, None] * w
    Ep_logrho = np.einsum("mia,ma->mi", w_iii, dlogrho)
    Ep_r = np.einsum("mia,ma->mi", w_iii, dr)
    e_logrho = Ep_logrho / lift.r_i
    e_r = Ep_r / lift.r_i

    rho = lift.rho
    C_closed = -(rho[:, None] ** -2) * lift.r_i * (
        e_r - (lift.r[:, None] - lift.r_i) * e_logrho
    )

    gamma_iii = christoffels(lift.III, dIII)
    hess_coord = ddlogrho - np.einsum("mkab,mk->mab", gamma_iii, dlogrho)
    hess_frame = np.einsum("mia,mjb,mab->mij", w_iii, w_iii, hess_coord)
    iii_inv = np.linalg.inv(lift.III)
    grad_sq = np.einsum("mab,ma,mb->m", iii_inv, dlogrho, dlogrho)
    lap_iii = laplacian(lift.III, gamma_iii, dlogrho, ddlogrho)

    eye = np.eye(n)
    inv_rho2 = rho**-2
    L_closed_a = inv_rho2[:, None, None] * (
        hess_frame
        - np.einsum("mi,mj->mij", Ep_logrho, Ep_logrho)
        + 0.5 * (grad_sq - 1.0)[:, None, None] * eye
    )
    L_closed_b = inv_rho2[:, None, None] * (
        hess_frame
        - np.einsum("mi,mj->mij", e_logrho, e_logrho)
        + 0.5 * grad_sq[:, None, None] * eye
    )

    # nabla_c B_ab = d_c B_ab - Gamma^k_ca B_kb - Gamma^k_cb B_ak, then B_ij,k
    gamma_b = np.einsum("mkca,mkb->mcab", gamma_g, _b_tensor(lift))
    cov_coord = dB - gamma_b - np.swapaxes(gamma_b, -1, -2)
    cov_B = np.einsum("mia,mjb,mkc,mcab->mijk", w, w, w, cov_coord, optimize=True)

    return Analysis(
        chart=chart, grid=grid, lift=lift,
        N=N, delta_y=delta_y, E_Y=E_Y, E2_Y=E2_Y,
        L_structural=L_structural, C_structural=C_structural,
        B_structural=B_structural,
        C_closed=C_closed, L_closed_a=L_closed_a, L_closed_b=L_closed_b,
        cov_B=cov_B,
        laplace_iii_logrho=lap_iii, grad_iii_logrho_sq=grad_sq,
        metric=_metric(lift, jets),
    )


def metric_geometry(
    chart: Chart, grid: np.ndarray, steps: FieldSteps = DEFAULT_STEPS
) -> MetricField:
    """Orthonormal-frame curvature of the invariant metric over a grid."""
    return _metric(*_jets(chart, grid, steps))


@dataclass(frozen=True)
class ClassificationResult:
    """Grid-level classification of a chart by its invariants."""

    is_isotropic: bool
    lambda_estimate: float
    is_isoparametric: bool
    alpha: Optional[np.ndarray]
    b_hat: np.ndarray
    max_abs_c: float
    l_identity_deviation: float
    b_spread: float
    alpha_spread: Optional[float]
    prop2_sign_ok: Optional[bool]
    prop7_consistent: Optional[bool]

    def to_dict(self) -> dict:
        return {
            "is_isotropic": self.is_isotropic,
            "lambda_estimate": self.lambda_estimate,
            "is_isoparametric": self.is_isoparametric,
            "alpha": None if self.alpha is None else list(self.alpha),
            "b_hat": list(self.b_hat),
            "max_abs_c": self.max_abs_c,
            "l_identity_deviation": self.l_identity_deviation,
            "b_spread": self.b_spread,
            "alpha_spread": self.alpha_spread,
            "prop2_sign_ok": self.prop2_sign_ok,
            "prop7_consistent": self.prop7_consistent,
        }


def classify_analysis(a: Analysis, tol: float = 1e-5) -> ClassificationResult:
    """Classification from a completed analysis (>= 2 grid points)."""
    m, n = a.grid.shape
    if m < 2:
        raise InputError("classification needs at least two grid points")
    lam = a.lambda_estimate
    eye = np.eye(n)
    max_c = float(np.max(np.abs(a.C_closed)))
    l_dev = float(np.max(np.abs(a.L_structural - lam * eye)))
    b_sorted = np.sort(a.lift.b, axis=1)
    b_hat = np.mean(b_sorted, axis=0)
    b_spread = float(np.max(np.ptp(b_sorted, axis=0)))

    is_isotropic = max_c <= tol and l_dev <= tol
    is_isoparametric = max_c <= tol and b_spread <= tol

    alpha = None
    alpha_spread = None
    prop2 = None
    prop7 = None
    if is_isotropic:
        alpha_field = a.N - lam * a.lift.Y
        alpha = np.mean(alpha_field, axis=0)
        alpha_spread = float(np.max(np.abs(alpha_field - alpha)))
        prop2 = bool(lam >= -tol)
        if is_isoparametric:
            prop7 = bool(abs(lam) <= tol)
    return ClassificationResult(
        is_isotropic=is_isotropic,
        lambda_estimate=lam,
        is_isoparametric=is_isoparametric,
        alpha=alpha,
        b_hat=b_hat,
        max_abs_c=max_c,
        l_identity_deviation=l_dev,
        b_spread=b_spread,
        alpha_spread=alpha_spread,
        prop2_sign_ok=prop2,
        prop7_consistent=prop7,
    )


def classify(
    chart: Chart, grid: np.ndarray, tol: float = 1e-5,
    steps: FieldSteps = DEFAULT_STEPS,
) -> ClassificationResult:
    """Classify a chart as L-isotropic / L-isoparametric over a grid."""
    return classify_analysis(analyze(chart, grid, steps), tol)
