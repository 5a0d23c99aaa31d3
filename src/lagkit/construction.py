"""Closed-form integration of the curvature-line frame system.

For constants b_i (trace-free, unit-square, pairwise distinct and
nonzero), an orthogonal matrix C with nonvanishing diagonal, and free
vectors beta1, beta3, gamma1, the integrated position and second frame
vector are, in the privileged coordinates v,

    Y^1 = sum_k [ v_k^2 b_k + sqrt2 v_k c_k (beta1_k - beta3_k b_k)
                  + c_k^2 beta3_k (beta3_k b_k / 2 - beta1_k) + gamma1_k ],
    Y^2 = -Y^1,     Y^3 = sum v_k^2 - 1/2,    Y^(n+4) = Y^3 + 1,
    Y^(s+3) = sqrt2 sum_k v_k C[k, s],

    eta^1 = A + 1/2,  eta^2 = -A + 1/2,
    eta^3 = eta^(n+4) = r(v),
    eta^(s+3) = sum_k (sqrt2 v_k b_k + d_k) C[k, s],

with c_k = C[k, k], d_k = c_k (beta1_k - beta3_k b_k) and
A = sum_k [ v_k^2 b_k^2 + sqrt2 v_k b_k d_k + d_k^2 / 2 ].  The scalar
invariants are rho(v) = 1/2 + sum v_k^2 and r(v) = sum v_k^2 b_k + phi/2
where

    phi = -2 sum_k [ c_k^2 beta3_k (beta3_k b_k / 2 - beta1_k) + gamma1_k ].

The remaining integration constants (gamma3, the alpha's and the psi's)
are fully determined by the lightlike/pairing constraints and are
eliminated here, never exposed.  After the per-line reparametrization
vbar_k = sqrt2 v_k b_k the immersion and its normal take the closed form

    x^1 = r/rho,
    x^(s+1) = sum_k [ vbar_k (1 - (r/rho) bbar_k) + d_k ] C[k, s],
    xi^1 = (rho - 1)/rho,
    xi^(s+1) = (1/rho) sum_k vbar_k bbar_k C[k, s],

with bbar_k = 1/b_k, which for C = I and d = 0 is exactly the explicit
family with constants a_k = 1/b_k and phi-shift phi.

``frobenius_report`` checks these equations on the output and reads N
and b of the derived chart from the one ``Analysis`` that classifies it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import sqrt
from typing import Callable

import numpy as np

from . import fd
from .charts import Chart, points_first
from .errors import InputError, ParameterError
from .spaces import laguerre_space, p_vector

__all__ = [
    "ConstructionConstants",
    "ConstructedMaps",
    "ValidationReport",
    "validate_constants",
    "random_orthogonal",
    "b_from_curvatures",
    "build_position",
    "build_normal_map",
    "build_immersion",
    "frobenius_report",
]

UNBOUNDED = (-np.inf, np.inf)


@dataclass(frozen=True)
class ConstructionConstants:
    """Free integration data: b, the orthogonal matrix, beta1/beta3/gamma1."""

    b: np.ndarray
    cmat: np.ndarray
    beta1: np.ndarray
    beta3: np.ndarray
    gamma1: np.ndarray

    def __post_init__(self):
        for name in ("b", "beta1", "beta3", "gamma1"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        cmat = np.array(self.cmat, dtype=float)
        cmat.flags.writeable = False
        object.__setattr__(self, "cmat", cmat)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @property
    def diag(self) -> np.ndarray:
        return np.diagonal(self.cmat)

    @property
    def phi(self) -> float:
        c = self.diag
        return float(
            -2.0
            * np.sum(
                c**2 * self.beta3 * (0.5 * self.beta3 * self.b - self.beta1)
                + self.gamma1
            )
        )

    def to_json_dict(self) -> dict:
        return {
            "b": self.b.tolist(),
            "cmat": self.cmat.tolist(),
            "beta1": self.beta1.tolist(),
            "beta3": self.beta3.tolist(),
            "gamma1": self.gamma1.tolist(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ConstructionConstants":
        """Constants from their JSON form: ``b`` and ``cmat`` (n*n entries,
        nested or flat) are required, beta1/beta3/gamma1 default to zero.
        Raises ParameterError on anything but finite numbers."""
        try:
            b = np.asarray(data["b"], dtype=float)
            cmat = np.asarray(data["cmat"], dtype=float)
            vectors = {
                name: np.asarray(data.get(name, np.zeros(b.size)), dtype=float)
                for name in ("beta1", "beta3", "gamma1")
            }
        except KeyError as exc:
            raise ParameterError(f"missing constant {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"constants must be arrays of numbers: {exc}") from exc
        n = b.size
        if b.ndim != 1 or cmat.size != n * n:
            raise ParameterError(
                f"need b as a list of n numbers and n*n cmat entries; got b of shape "
                f"{b.shape} and {cmat.size} cmat entries"
            )
        if not all(np.all(np.isfinite(v)) for v in (b, cmat, *vectors.values())):
            raise ParameterError("constants must be finite")
        return cls(b=b, cmat=cmat.reshape(n, n), **vectors)

    @classmethod
    def simple(cls, b, cmat=None, beta1=None, beta3=None, gamma1=None):
        b = np.asarray(b, dtype=float)
        n = b.shape[0]
        return cls(
            b=b,
            cmat=np.eye(n) if cmat is None else np.asarray(cmat, dtype=float),
            beta1=np.zeros(n) if beta1 is None else np.asarray(beta1, dtype=float),
            beta3=np.zeros(n) if beta3 is None else np.asarray(beta3, dtype=float),
            gamma1=np.zeros(n) if gamma1 is None else np.asarray(gamma1, dtype=float),
        )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple
    values: dict


def validate_constants(c: ConstructionConstants) -> ValidationReport:
    """Check every admissibility condition; failures are enumerated."""
    failures = []
    b = c.b
    n = c.n
    values = {
        "b_trace": float(abs(b.sum())),
        "b_square": float(abs((b**2).sum() - 1.0)),
        "orthogonality": float(np.max(np.abs(c.cmat.T @ c.cmat - np.eye(n)))),
        "min_abs_b": float(np.min(np.abs(b))),
        "min_b_gap": float(np.min(np.abs(np.subtract.outer(b, b))[~np.eye(n, dtype=bool)]))
        if n > 1
        else float("inf"),
        "min_abs_diag": float(np.min(np.abs(c.diag))),
    }
    if c.cmat.shape != (n, n):
        failures.append(f"matrix shape {c.cmat.shape} != ({n}, {n})")
    if not all(v.shape == (n,) for v in (c.beta1, c.beta3, c.gamma1)):
        failures.append("beta1/beta3/gamma1 must have length n")
    if values["b_trace"] > 1e-12:
        failures.append(f"sum b_i = {values['b_trace']:.3e} exceeds 1e-12")
    if values["b_square"] > 1e-12:
        failures.append(f"|sum b_i^2 - 1| = {values['b_square']:.3e} exceeds 1e-12")
    if values["min_abs_b"] <= 1e-9:
        failures.append("some b_i is (numerically) zero")
    if values["min_b_gap"] <= 1e-9:
        failures.append("b_i are not pairwise distinct")
    if values["orthogonality"] > 1e-12:
        failures.append(
            f"matrix is not orthogonal: max |C'C - I| = {values['orthogonality']:.3e}"
        )
    if values["min_abs_diag"] <= 1e-12:
        failures.append("matrix has a vanishing diagonal entry")
    return ValidationReport(ok=not failures, failures=tuple(failures), values=values)


def _require_valid(c: ConstructionConstants) -> None:
    report = validate_constants(c)
    if not report.ok:
        raise ParameterError("; ".join(report.failures))


def random_orthogonal(n: int, seed: int) -> np.ndarray:
    """Seeded Haar-orthogonal matrix, resampled until every diagonal
    entry has magnitude >= 1e-3 (the construction needs c_kk != 0)."""
    if n < 2:
        raise ParameterError("need n >= 2")
    rng = np.random.default_rng(seed)
    while True:
        A = rng.standard_normal((n, n))
        Q, R = np.linalg.qr(A)
        Q = Q * np.sign(np.diag(R))
        if np.min(np.abs(np.diag(Q))) >= 1e-3:
            return Q


def b_from_curvatures(a) -> np.ndarray:
    """Trace-free unit b-vector from distinct nonzero principal curvatures.

    Accepts ints, floats or decimal strings; the radii, their mean and
    the differences are taken in exact rational arithmetic so that
    sum b = 0 and sum b^2 = 1 hold to the last float digit.
    """
    try:
        fracs = [Fraction(str(v)) for v in a]
    except ValueError as exc:
        raise ParameterError(f"curvatures must be finite numbers: {exc}") from exc
    if len(fracs) < 2:
        raise ParameterError(f"need at least two curvatures, got {len(fracs)}")
    if any(f == 0 for f in fracs):
        raise ParameterError("curvatures must be nonzero")
    if len(set(fracs)) != len(fracs):
        raise ParameterError("curvatures must be pairwise distinct")
    radii = [1 / f for f in fracs]
    mean = sum(radii, Fraction(0)) / len(radii)
    diffs = [mean - r for r in radii]
    rho2 = sum(d * d for d in diffs)
    scale = 1.0 / sqrt(float(rho2))
    return np.array([float(d) * scale for d in diffs])


def build_position(c: ConstructionConstants) -> Callable:
    """Evaluator v -> Y(v) in R^(n+4), vectorised over batches."""
    _require_valid(c)
    b, cmat, ck = c.b, c.cmat, c.diag
    d = ck * (c.beta1 - c.beta3 * b)
    const1 = float(np.sum(ck**2 * c.beta3 * (0.5 * c.beta3 * b - c.beta1) + c.gamma1))
    n = c.n

    def position(V):
        V = np.atleast_2d(np.asarray(V, dtype=float))
        m = V.shape[0]
        Y = np.empty((m, n + 4))
        y1 = np.sum(V**2 * b, axis=1) + np.sqrt(2.0) * V @ d + const1
        vsq = np.sum(V**2, axis=1)
        Y[:, 0] = y1
        Y[:, 1] = -y1
        Y[:, 2] = vsq - 0.5
        Y[:, 3:-1] = np.sqrt(2.0) * V @ cmat
        Y[:, -1] = vsq + 0.5
        return Y

    return position


def build_normal_map(c: ConstructionConstants) -> Callable:
    """Evaluator v -> eta(v) in R^(n+4), vectorised over batches."""
    _require_valid(c)
    b, cmat, ck = c.b, c.cmat, c.diag
    d = ck * (c.beta1 - c.beta3 * b)
    const3 = -float(
        np.sum(ck**2 * c.beta3 * (0.5 * c.beta3 * b - c.beta1) + c.gamma1)
    )
    n = c.n

    def normal_map(V):
        V = np.atleast_2d(np.asarray(V, dtype=float))
        m = V.shape[0]
        eta = np.empty((m, n + 4))
        A = np.sum(V**2 * b**2, axis=1) + np.sqrt(2.0) * V @ (b * d) + 0.5 * np.sum(d**2)
        r = np.sum(V**2 * b, axis=1) + const3
        eta[:, 0] = A + 0.5
        eta[:, 1] = -A + 0.5
        eta[:, 2] = r
        eta[:, 3:-1] = (np.sqrt(2.0) * V * b) @ cmat + np.broadcast_to(d @ cmat, (m, n))
        eta[:, -1] = r
        return eta

    return normal_map


@dataclass(frozen=True, eq=False)
class ConstructedMaps:
    """Closed-form maps of one admissible constant set.

    ``position``, ``normal_map``, ``rho`` and ``mean_radius`` take the
    privileged coordinates v; ``x`` and ``xi`` (and the derived chart)
    take the reparametrized curvature-line coordinates vbar.
    """

    constants: ConstructionConstants
    position: Callable
    normal_map: Callable
    rho: Callable
    mean_radius: Callable
    x: Callable
    xi: Callable
    chart: Chart


def build_immersion(c: ConstructionConstants) -> ConstructedMaps:
    """Assemble every closed-form map, with exact jets for the chart."""
    _require_valid(c)
    b, cmat, ck = c.b, c.cmat, c.diag
    dconst = ck * (c.beta1 - c.beta3 * b)
    bbar = 1.0 / b
    phi = c.phi
    n = c.n

    def rho_v(V):
        V = np.atleast_2d(np.asarray(V, dtype=float))
        return 0.5 + np.sum(V**2, axis=1)

    def r_v(V):
        V = np.atleast_2d(np.asarray(V, dtype=float))
        return np.sum(V**2 * b, axis=1) + 0.5 * phi

    def _scalars(Vbar):
        Vbar = np.atleast_2d(np.asarray(Vbar, dtype=float))
        rho = 0.5 * (1.0 + np.sum((Vbar * bbar) ** 2, axis=1))
        r = 0.5 * np.sum(Vbar**2 * bbar, axis=1) + 0.5 * phi
        return Vbar, rho, r

    def x_eval(Vbar):
        Vbar, rho, r = _scalars(Vbar)
        q = r / rho
        w = Vbar * (1.0 - q[:, None] * bbar) + dconst
        out = np.empty((Vbar.shape[0], n + 1))
        out[:, 0] = q
        out[:, 1:] = w @ cmat
        return out

    def xi_eval(Vbar):
        Vbar, rho, _ = _scalars(Vbar)
        out = np.empty((Vbar.shape[0], n + 1))
        out[:, 0] = (rho - 1.0) / rho
        out[:, 1:] = (Vbar * bbar) @ cmat / rho[:, None]
        return out

    def x_jet(Vbar):
        Vbar, rho, r = _scalars(Vbar)
        m = Vbar.shape[0]
        q = r / rho
        # Points on the last axis, as in ``hilf_chart``'s jet.
        V = np.ascontiguousarray(Vbar.T)
        bb = bbar[:, None]
        dr = bb * V                          # d r / d vbar_i
        drho = bb**2 * V
        dq = dr / rho - (r / rho**2) * drho
        eye = np.eye(n)
        ddr = (bbar * eye)[..., None]        # constant diagonal second partials
        ddrho = (bbar**2 * eye)[..., None]
        ddq = (
            ddr / rho
            - dr[:, None] * drho[None, :] / rho**2
            - dr[None, :] * drho[:, None] / rho**2
            - (r / rho**2) * ddrho
            + 2.0 * (r / rho**3) * (drho[:, None] * drho[None, :])
        )
        x = x_eval(Vbar)
        # w_k = vbar_k (1 - q bbar_k) + d_k, so
        # dw[i, k] = delta_ik (1 - q bbar_k) - dq_i bbar_k vbar_k
        dw = eye[..., None] * (1.0 - q * bb[None]) - (dq[:, None] * bb) * V[None]
        dx = np.empty((n, n + 1, m))
        dx[:, 0] = dq
        dx[:, 1:] = cmat.T @ dw
        # ddw[i, j, k] = -delta_ik dq_j bbar_k - delta_jk dq_i bbar_k - ddq_ij bbar_k vbar_k
        ddw = -(ddq[:, :, None] * bb) * V
        for k in range(n):
            ddw[k, :, k] -= dq * bbar[k]
            ddw[:, k, k] -= dq * bbar[k]
        ddx = np.empty((n, n, n + 1, m))
        ddx[:, :, 0] = ddq
        ddx[:, :, 1:] = cmat.T @ ddw
        del ddw  # freed before the copy below, which sets the peak memory of the lift
        return x, points_first(dx), points_first(ddx)

    chart = Chart(
        n=n,
        domain=tuple(UNBOUNDED for _ in range(n)),
        evaluator=x_eval,
        jet=x_jet,
        normal=xi_eval,
        name="constructed",
        params={"b": b.tolist(), "phi": phi},
    )
    return ConstructedMaps(
        constants=c,
        position=build_position(c),
        normal_map=build_normal_map(c),
        rho=rho_v,
        mean_radius=r_v,
        x=x_eval,
        xi=xi_eval,
        chart=chart,
    )


def frobenius_report(maps: ConstructedMaps, grid: np.ndarray, analysis, step: float = 1e-3) -> dict:
    """Numerical residuals of the integrability conditions on the output.

    Verifies, over the v-grid and from one stencil cloud at ``step``:
    vanishing mixed partials of Y, the diagonal second-order equation
    Y_,ii/g_ii - g_ii,i Y_,i/(2 g_ii^2) = N + b_i P with the constant
    N = (0,0,1,0...,1), the first-order equation eta_,i = b_i Y_,i and
    diagonality of <Y_,i, Y_,j>.  ``analysis``, the Analysis of the
    derived chart on the vbar grid sqrt(2) grid b (InputError for any
    other grid), gives the constancy of the pipeline vector N and of
    the Laguerre principal curvatures.
    """
    c = maps.constants
    n = c.n
    space = laguerre_space(n)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if not np.array_equal(analysis.grid, np.sqrt(2.0) * grid * c.b):
        raise InputError("the analysis is not of the vbar grid sqrt(2) grid b")

    cloud = fd.Cloud(grid, (step, step), 4)
    _, dY, ddY = cloud.partials(maps.position(cloud.points))  # (m, a, n+4), (m, a, b, n+4)
    deta = cloud.partials(maps.normal_map(cloud.points))[1]

    off = ~np.eye(n, dtype=bool)
    idx = np.arange(n)
    gram = np.einsum("mal,l,mbl->mab", dY, space.signs, dY)
    gdiag = gram[:, idx, idx, None]                        # (m, i, 1)
    # d_i g_ii = 2 <Y_,ii, Y_,i>
    dgdiag = 2.0 * np.einsum("mil,l,mil->mi", ddY[:, idx, idx], space.signs, dY)[..., None]
    lhs = ddY[:, idx, idx] / gdiag - dgdiag * dY / (2.0 * gdiag**2)
    N_const = np.zeros(n + 4)
    N_const[[2, -1]] = 1.0
    rhs = N_const + c.b[:, None] * p_vector(space).coords
    b_sorted = np.sort(analysis.lift.b, axis=1)
    return {
        "mixed_partials": float(np.max(np.abs(ddY[:, off]))),
        "second_equation": float(np.max(np.abs(lhs - rhs))),
        "eta_derivative": float(np.max(np.abs(deta - c.b[None, :, None] * dY))),
        "tangent_diagonality": float(np.max(np.abs(gram[:, off]))),
        "pipeline_n_constancy": float(np.max(np.abs(analysis.N - analysis.N.mean(axis=0)))),
        "pipeline_b_constancy": float(np.max(np.ptp(b_sorted, axis=0))) if len(grid) > 1 else 0.0,
    }
