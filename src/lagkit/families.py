"""Built-in chart catalog.

* ``hilf_chart`` -- the explicit family of Dupin hypersurfaces in
  Euclidean space obtained from a hyperplane by a Ribaucour-type
  transformation,

      x(u) = (0, u) + (sum a_i |u_i|^2 + phi) / (sum a_i^2 |u_i|^2 + 1)
                      * (1, -a_1 u_1, ..., -a_s u_s),

  with distinct nonzero constants a_i, multiplicities m_i and a free
  shift phi.  Its unit normal has the closed form
  xi = (S - 1, 2 a_1 u_1, ...) / (S + 1) for every phi.
* ``degenerate_example`` -- the corresponding spacelike hypersurface
  x = (T/2, u, T/2) inside the degenerate hyperplane <x, nu> = 0 of
  Minkowski space, with its lightlike normal solved from the defining
  constraints <xi, dx> = 0, <xi, xi> = 0, <xi, nu> = 1.
* ``laguerre_immersion_tau`` -- the pointwise map carrying the
  degenerate model onto the Euclidean unit tangent bundle.
* ``torus_chart`` -- a torus of revolution restricted to |v| < pi/3,
  the standard two-curvature sanity surface.

All evaluators are vectorised over point batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import Chart, points_first
from .errors import ImmersionError, ParameterError
from .spaces import SignatureSpace, minkowski_space

__all__ = [
    "HilfParams",
    "DegenerateChart",
    "hilf_chart",
    "degenerate_example",
    "laguerre_immersion_tau",
    "tau_chart",
    "torus_chart",
    "sphere_chart",
    "CATALOG",
]

UNBOUNDED = (-np.inf, np.inf)


@dataclass(frozen=True)
class HilfParams:
    """Parameters of the explicit family: distinct nonzero constants
    a_1..a_s with multiplicities summing to n, plus the shift phi."""

    a: tuple
    multiplicities: tuple = ()
    phi: float = 0.0

    def __post_init__(self):
        try:
            a = np.asarray(self.a, dtype=float)
            mult = np.asarray(tuple(self.multiplicities) or (1,) * a.size, dtype=float)
            phi = float(self.phi)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"family parameters must be numbers: {exc}") from exc
        if a.ndim != 1 or a.size == 0:
            raise ParameterError(f"constants a_i must be a nonempty list, got {self.a!r}")
        if not (np.all(np.isfinite(a)) and np.isfinite(phi)):
            raise ParameterError("constants a_i and the shift phi must be finite")
        if mult.shape != a.shape:
            raise ParameterError("need one multiplicity per constant")
        if np.any((mult < 1) | (mult != np.floor(mult))):
            raise ParameterError("multiplicities must be positive integers")
        a, mult = tuple(a.tolist()), tuple(int(m) for m in mult)
        if any(v == 0.0 for v in a):
            raise ParameterError("constants a_i must be nonzero")
        if len(set(a)) != len(a):
            raise ParameterError("constants a_i must be pairwise distinct")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "multiplicities", mult)
        object.__setattr__(self, "phi", phi)

    @property
    def n(self) -> int:
        return sum(self.multiplicities)

    @property
    def coeffs(self) -> np.ndarray:
        """Per-coordinate constants, a_i repeated by multiplicity."""
        return np.repeat(self.a, self.multiplicities).astype(float)


def _hilf_pieces(A: np.ndarray, phi: float, U: np.ndarray):
    T = np.sum(A * U**2, axis=-1)
    S = np.sum(A**2 * U**2, axis=-1)
    Q = 1.0 / (S + 1.0)
    W = (T + phi) * Q
    return T, S, Q, W


def hilf_chart(params: HilfParams) -> Chart:
    """Chart of the explicit family with exact jets and analytic normal."""
    A = params.coeffs
    phi = float(params.phi)
    n = params.n

    def evaluate(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        _, _, _, W = _hilf_pieces(A, phi, U)
        x = np.empty((U.shape[0], n + 1))
        x[:, 0] = W
        x[:, 1:] = U * (1.0 - W[:, None] * A)
        return x

    def jet(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        m = U.shape[0]
        T, S, Q, W = _hilf_pieces(A, phi, U)
        # The partials keep the points on the last axis, so each broadcast
        # runs its inner loop over the batch.  dT_i = 2 A_i u_i,
        # dS_i = 2 A_i^2 u_i; Q = 1/(S+1)
        V = np.ascontiguousarray(U.T)
        a = A[:, None]
        dT = 2.0 * a * V
        dS = 2.0 * a**2 * V
        dQ = -dS * Q**2
        dW = dT * Q + (T + phi) * dQ
        eye = np.eye(n)
        ddT = (2.0 * A * eye)[..., None]
        ddS = (2.0 * A**2 * eye)[..., None]
        ddQ = -ddS * Q**2 + 2.0 * (dS[:, None] * dS[None, :]) * Q**3
        ddW = ddT * Q + dT[:, None] * dQ[None, :] + dT[None, :] * dQ[:, None] + (T + phi) * ddQ
        x = np.empty((m, n + 1))
        x[:, 0] = W
        x[:, 1:] = U * (1.0 - W[:, None] * A)
        dx = np.empty((n, n + 1, m))
        dx[:, 0] = dW
        dx[:, 1:] = eye[..., None] * (1.0 - W * a[None]) - (dW[:, None] * a) * V[None]
        # d_ik x_(1+j) = -ddW_ik A_j u_j - delta_kj dW_i A_j - delta_ij dW_k A_j
        ddx = np.empty((n, n, n + 1, m))
        ddx[:, :, 0] = ddW
        ddx[:, :, 1:] = -(ddW[:, :, None] * a) * V
        for j in range(n):
            ddx[:, j, 1 + j] -= dW * A[j]
            ddx[j, :, 1 + j] -= dW * A[j]
        return x, points_first(dx), points_first(ddx)

    def normal(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        _, S, Q, _ = _hilf_pieces(A, phi, U)
        xi = np.empty((U.shape[0], n + 1))
        xi[:, 0] = (S - 1.0) * Q
        xi[:, 1:] = 2.0 * A * U * Q[:, None]
        return xi

    return Chart(
        n=n,
        domain=tuple(UNBOUNDED for _ in range(n)),
        evaluator=evaluate,
        jet=jet,
        normal=normal,
        name="hilf",
        params={"a": list(params.a), "multiplicities": list(params.multiplicities), "phi": phi},
    )


@dataclass(frozen=True, eq=False)
class DegenerateChart:
    """A spacelike hypersurface in the degenerate hyperplane <x, nu> = 0
    of Minkowski space, together with its lightlike normal field."""

    n: int
    space: SignatureSpace
    evaluator: Callable
    normal: Callable
    jet: Callable
    normal_jet: Callable
    params: dict

    def constraint_residuals(self, U: np.ndarray):
        """Max residuals of <x,nu>=0, <xi,xi>=0, <xi,nu>=1, <xi,dx>=0."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        x, dx, _ = self.jet(U)
        xi = self.normal(U)
        nu = np.zeros(self.space.dimension)
        nu[0] = nu[-1] = 1.0
        res_x_nu = np.max(np.abs(self.space.dot(x, nu)))
        res_xi_null = np.max(np.abs(self.space.dot(xi, xi)))
        res_xi_nu = np.max(np.abs(self.space.dot(xi, nu) - 1.0))
        res_tangent = np.max(np.abs(self.space.dot(dx, xi[:, None, :])))
        return {
            "position_in_hyperplane": float(res_x_nu),
            "normal_lightlike": float(res_xi_null),
            "normal_nu_pairing": float(res_xi_nu),
            "normal_tangency": float(res_tangent),
        }

    def fundamental_forms(self, U: np.ndarray):
        """Minkowski first and second fundamental forms I, -<dx, dxi>."""
        U = np.atleast_2d(np.asarray(U, dtype=float))
        _, dx, _ = self.jet(U)
        dxi = self.normal_jet(U)
        signs = self.space.signs
        I = np.einsum("mia,a,mja->mij", dx, signs, dx)
        II = -np.einsum("mia,a,mja->mij", dx, signs, dxi)
        return I, II


def degenerate_example(params: HilfParams) -> DegenerateChart:
    """The model hypersurface x = (T/2, u, T/2), T = sum a_i |u_i|^2.

    The lightlike normal is solved from its three defining constraints,
    which gives xi = ((1 - S)/2, -a_1 u_1, ..., -(1 + S)/2) with
    S = sum a_i^2 |u_i|^2; the solved field satisfies all constraints to
    machine precision and maps onto the explicit Euclidean family.
    """
    A = params.coeffs
    n = params.n
    space = minkowski_space(n)

    def evaluate(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        T = np.sum(A * U**2, axis=-1)
        x = np.empty((U.shape[0], n + 2))
        x[:, 0] = 0.5 * T
        x[:, 1:-1] = U
        x[:, -1] = 0.5 * T
        return x

    def jet(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        m = U.shape[0]
        x = evaluate(U)
        dx = np.zeros((m, n, n + 2))
        dx[:, :, 0] = A * U
        dx[:, :, 1:-1] = np.eye(n)[None]
        dx[:, :, -1] = A * U
        ddx = np.zeros((m, n, n, n + 2))
        ddx[:, :, :, 0] = (A * np.eye(n))[None]
        ddx[:, :, :, -1] = (A * np.eye(n))[None]
        return x, dx, ddx

    def normal(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        S = np.sum(A**2 * U**2, axis=-1)
        xi = np.empty((U.shape[0], n + 2))
        xi[:, 0] = 0.5 * (1.0 - S)
        xi[:, 1:-1] = -A * U
        xi[:, -1] = -0.5 * (1.0 + S)
        return xi

    def normal_jet(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        m = U.shape[0]
        dxi = np.zeros((m, n, n + 2))
        dxi[:, :, 0] = -(A**2) * U
        dxi[:, :, 1:-1] = -(A * np.eye(n))[None]
        dxi[:, :, -1] = -(A**2) * U
        return dxi

    return DegenerateChart(
        n=n,
        space=space,
        evaluator=evaluate,
        normal=normal,
        jet=jet,
        normal_jet=normal_jet,
        params={"a": list(params.a), "multiplicities": list(params.multiplicities)},
    )


def laguerre_immersion_tau(x: np.ndarray, xi: np.ndarray):
    """Map (x, xi) on the degenerate model to (x', xi') in R^(n+1) x S^n.

    With x = (x1, x0, x1) and xi = (xi1 + 1, xi0, xi1) in coordinates,

        x'  = (-x1/xi1, x0 - (x1/xi1) xi0),
        xi' = (1 + 1/xi1, xi0/xi1).

    Requires xi1 != 0 (guaranteed on the model, where xi1 <= -1/2).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    x1 = x[:, -1]
    x0 = x[:, 1:-1]
    xi1 = xi[:, -1]
    xi0 = xi[:, 1:-1]
    if np.any(np.abs(xi1) < 1e-14):
        raise ImmersionError("tau undefined where the normal component xi1 vanishes")
    ratio = (x1 / xi1)[:, None]
    x_out = np.concatenate([-ratio, x0 - ratio * xi0], axis=1)
    xi_out = np.concatenate([(1.0 + 1.0 / xi1)[:, None], xi0 / xi1[:, None]], axis=1)
    return x_out, xi_out


def tau_chart(deg: DegenerateChart) -> Chart:
    """Euclidean chart obtained by pushing a degenerate chart through tau.

    Values and the unit normal are closed-form; jets fall back to finite
    differences of the composed evaluator.
    """

    def evaluate(U):
        x, _ = laguerre_immersion_tau(deg.evaluator(U), deg.normal(U))
        return x

    def normal(U):
        _, xi = laguerre_immersion_tau(deg.evaluator(U), deg.normal(U))
        return xi

    return Chart(
        n=deg.n,
        domain=tuple(UNBOUNDED for _ in range(deg.n)),
        evaluator=evaluate,
        normal=normal,
        name="tau-image",
        params=dict(deg.params),
    )


def torus_chart(R: float, r_tube: float) -> Chart:
    """Torus of revolution with exact jets; domain restricted to |v| < pi/3.

    The analytic normal points into the tube, which makes both principal
    curvatures positive on the restricted domain: 1/r_tube along the tube
    and cos v / (R + r_tube cos v) along the axis of revolution.
    """
    if not (np.isfinite(R) and R > r_tube > 0):
        raise ParameterError(f"need R > r_tube > 0, got R={R}, r_tube={r_tube}")

    def evaluate(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        u, v = U[:, 0], U[:, 1]
        w = R + r_tube * np.cos(v)
        return np.stack([w * np.cos(u), w * np.sin(u), r_tube * np.sin(v)], axis=-1)

    def jet(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        m = U.shape[0]
        u, v = U[:, 0], U[:, 1]
        cu, su = np.cos(u), np.sin(u)
        cv, sv = np.cos(v), np.sin(v)
        w = R + r_tube * cv
        x = np.stack([w * cu, w * su, r_tube * sv], axis=-1)
        dx = np.empty((m, 2, 3))
        dx[:, 0] = np.stack([-w * su, w * cu, np.zeros(m)], axis=-1)
        dx[:, 1] = np.stack([-r_tube * sv * cu, -r_tube * sv * su, r_tube * cv], axis=-1)
        ddx = np.empty((m, 2, 2, 3))
        ddx[:, 0, 0] = np.stack([-w * cu, -w * su, np.zeros(m)], axis=-1)
        ddx[:, 0, 1] = np.stack([r_tube * sv * su, -r_tube * sv * cu, np.zeros(m)], axis=-1)
        ddx[:, 1, 0] = ddx[:, 0, 1]
        ddx[:, 1, 1] = np.stack([-r_tube * cv * cu, -r_tube * cv * su, -r_tube * sv], axis=-1)
        return x, dx, ddx

    def normal(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        u, v = U[:, 0], U[:, 1]
        return -np.stack([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)], axis=-1)

    return Chart(
        n=2,
        domain=((-np.pi, np.pi), (-np.pi / 3.0, np.pi / 3.0)),
        evaluator=evaluate,
        jet=jet,
        normal=normal,
        name="torus",
        params={"R": float(R), "r_tube": float(r_tube)},
    )


def sphere_chart(radius: float = 1.0) -> Chart:
    """Round sphere in graph coordinates; umbilic everywhere (for tests)."""

    def evaluate(U):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        h = np.sqrt(radius**2 - np.sum(U**2, axis=-1))
        return np.concatenate([U, h[:, None]], axis=1)

    half = radius / 2.0
    return Chart(
        n=2,
        domain=((-half, half), (-half, half)),
        evaluator=evaluate,
        name="sphere",
        params={"radius": float(radius)},
    )


def _accepted(params: dict, *keys: str) -> dict:
    """``params`` itself; raises ParameterError naming any key not in ``keys``."""
    unknown = sorted(set(params) - set(keys))
    if unknown:
        raise ParameterError(
            f"unknown surface parameter(s) {', '.join(map(repr, unknown))}; "
            f"accepted: {', '.join(keys)}"
        )
    return params


def _number(params: dict, key: str, default: float) -> float:
    """``params[key]`` (or ``default``) as a float; ParameterError if it is not a number."""
    value = params.get(key, default)
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"surface parameter {key!r} must be a number, got {value!r}") from exc


def _hilf_from_params(params: dict) -> Chart:
    params = _accepted(params, "a", "multiplicities", "phi")
    return hilf_chart(
        HilfParams(
            a=params.get("a", (1.0, 2.0)),
            multiplicities=params.get("multiplicities", ()),
            phi=params.get("phi", 0.0),
        )
    )


def _degenerate_from_params(params: dict):
    params = _accepted(params, "a", "multiplicities")
    return degenerate_example(
        HilfParams(a=params.get("a", (1.0, 2.0)), multiplicities=params.get("multiplicities", ()))
    )


def _torus_from_params(params: dict) -> Chart:
    params = _accepted(params, "R", "r_tube")
    return torus_chart(_number(params, "R", 2.0), _number(params, "r_tube", 1.0))


CATALOG = {
    "hilf": _hilf_from_params,
    "degenerate-hilf": _degenerate_from_params,
    "torus": _torus_from_params,
}
