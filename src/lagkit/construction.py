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

with c_k = C[k, k], the shift d_k = c_k (beta1_k - beta3_k b_k) and
A = sum_k [ v_k^2 b_k^2 + sqrt2 v_k b_k d_k + d_k^2 / 2 ].  The scalar
invariants have the closed forms rho(v) = 1/2 + sum v_k^2 and r(v) =
sum v_k^2 b_k + phi/2, which no map here evaluates (the ``Analysis`` of
the derived chart holds rho and r), where

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

Every map is written once, for float points and Taylor seeds alike, so
the chart's jet is the exact Taylor polynomial of the same code.
``frobenius_report(maps, grid)`` gives the residuals of these equations
at each point of the output, from the degree-2 Taylor polynomials of
``position`` and ``normal_map``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import inf, sqrt
from typing import Callable

import numpy as np

from . import taylor
from .charts import Chart, closed_form
from .errors import ParameterError
from .families import NUMBERS, accepted, is_number_list
from .spaces import laguerre_signs, p_vector

__all__ = [
    "ConstructionConstants",
    "ConstructedMaps",
    "validate_constants",
    "random_orthogonal",
    "b_from_curvatures",
    "build_immersion",
    "FROBENIUS_RESIDUALS",
    "frobenius_report",
]


# The kind of ``cmat``: its n*n entries, flat or in rows of one length.
_MATRIX = (lambda value: is_number_list(value) or (
               isinstance(value, list) and all(map(is_number_list, value))
               and len(set(map(len, value))) == 1),
           "a list of finite JSON numbers, flat or in rows of one length")


@dataclass(frozen=True)
class ConstructionConstants:
    """Free integration data: b, the orthogonal matrix (the identity by
    default), beta1/beta3/gamma1 (zero by default)."""

    b: np.ndarray
    cmat: np.ndarray = None
    beta1: np.ndarray = None
    beta3: np.ndarray = None
    gamma1: np.ndarray = None

    def __post_init__(self):
        n = np.shape(self.b)[0]
        defaults = {"cmat": np.eye(n), "beta1": np.zeros(n), "beta3": np.zeros(n),
                    "gamma1": np.zeros(n)}
        for name in ("b", *defaults):
            value = getattr(self, name)
            arr = np.array(defaults[name] if value is None else value, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.b.shape[0]

    @property
    def diag(self) -> np.ndarray:
        return np.diagonal(self.cmat)

    @property
    def shift(self) -> np.ndarray:
        """d_k = c_kk (beta1_k - beta3_k b_k)."""
        return self.diag * (self.beta1 - self.beta3 * self.b)

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
    def from_json_dict(cls, data) -> "ConstructionConstants":
        """Constants from their JSON form: ``b`` (n >= 2 numbers) and
        ``cmat`` (n*n entries, flat or in rows) are required, beta1/beta3/
        gamma1 default to zero.  Raises ParameterError naming a missing
        key, or, by ``families.accepted``, an unknown one or one whose
        value is not of its kind."""
        data = accepted(data, "constant", b=NUMBERS, cmat=_MATRIX,
                        beta1=NUMBERS, beta3=NUMBERS, gamma1=NUMBERS)
        try:
            n, cmat = len(data["b"]), np.array(data["cmat"], dtype=float)
        except KeyError as exc:
            raise ParameterError(f"missing constant {exc.args[0]!r}") from exc
        if cmat.size != n * n:
            raise ParameterError(f"need n*n cmat entries for n = {n} constants b, "
                                 f"got {cmat.size} cmat entries")
        if n < 2:
            raise ParameterError(f"need n >= 2 constants b_i, got {n}")
        return cls(**{**data, "cmat": cmat.reshape(n, n)})


def validate_constants(c: ConstructionConstants) -> tuple:
    """The admissibility conditions that fail, as messages; empty when
    the constants are admissible."""
    b, n = c.b, c.n
    if n < 2:   # every other condition reduces over the b_i
        return (f"need n >= 2, got n = {n}",)
    if c.cmat.shape != (n, n):   # every other condition reads an n x n matrix
        return (f"matrix shape {c.cmat.shape} != ({n}, {n})",)
    with np.errstate(invalid="ignore", over="ignore"):
        trace, square = float(abs(b.sum())), float(abs((b**2).sum() - 1.0))
        orthogonality = float(np.max(np.abs(c.cmat.T @ c.cmat - np.eye(n))))
        gaps = np.abs(np.subtract.outer(b, b))[~np.eye(n, dtype=bool)]
        conditions = (
            (not all(np.all(np.isfinite(v)) for v in (b, c.cmat, c.beta1, c.beta3, c.gamma1)),
             "constants must be finite"),
            (not all(v.shape == (n,) for v in (c.beta1, c.beta3, c.gamma1)),
             "beta1/beta3/gamma1 must have length n"),
            (trace > 1e-12, f"sum b_i = {trace:.3e} exceeds 1e-12"),
            (square > 1e-12, f"|sum b_i^2 - 1| = {square:.3e} exceeds 1e-12"),
            (np.min(np.abs(b)) <= 1e-9, "some b_i is (numerically) zero"),
            (np.min(gaps) <= 1e-9, "b_i are not pairwise distinct"),
            (orthogonality > 1e-12,
             f"matrix is not orthogonal: max |C'C - I| = {orthogonality:.3e}"),
            (np.min(np.abs(c.diag)) <= 1e-12, "matrix has a vanishing diagonal entry"),
        )
    return tuple(message for failed, message in conditions if failed)


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
    # Out of the float range, float() overflows or rounds towards zero.
    try:
        floats = [float(q) for q in (rho2, *diffs)]
    except OverflowError:
        floats = [inf]
    if not all(q == 0 or sys.float_info.min <= abs(f) < inf
               for q, f in zip((rho2, *diffs), floats)):
        raise ParameterError("curvatures out of the float range: rho^2 and each deviation "
                             "of the radii must be a finite normal float")
    scale = 1.0 / sqrt(floats[0])
    return np.array([f * scale for f in floats[1:]])


@dataclass(frozen=True, eq=False)
class ConstructedMaps:
    """Closed-form maps of one admissible constant set.

    ``position`` (Y) and ``normal_map`` (eta) take the privileged
    coordinates v of point batches (..., n), float arrays and Taylor
    seeds alike, to R^(n+4); the derived chart, whose ``evaluator`` and
    ``normal`` are x and xi, takes the reparametrized curvature-line
    coordinates vbar.
    """

    constants: ConstructionConstants
    position: Callable
    normal_map: Callable
    chart: Chart


def build_immersion(c: ConstructionConstants) -> ConstructedMaps:
    """Assemble every closed-form map; the chart's jet is the Taylor
    polynomial of its map.  ParameterError lists the conditions of
    ``validate_constants`` that fail."""
    failures = validate_constants(c)
    if failures:
        raise ParameterError("; ".join(failures))
    b, cmat, d, phi, n = c.b, c.cmat, c.shift, c.phi, c.n
    bbar = 1.0 / b
    const1, const3 = -0.5 * phi, 0.5 * phi

    def position(V):
        y1 = (np.sum(V**2 * b, axis=-1) + np.sqrt(2.0) * V @ d + const1)[..., None]
        vsq = np.sum(V**2, axis=-1)[..., None]
        return np.concatenate([y1, -y1, vsq - 0.5, np.sqrt(2.0) * V @ cmat, vsq + 0.5], axis=-1)

    def normal_map(V):
        A = (np.sum(V**2 * b**2, axis=-1) + np.sqrt(2.0) * V @ (b * d)
             + 0.5 * np.sum(d**2))[..., None]
        r = (np.sum(V**2 * b, axis=-1) + const3)[..., None]
        spatial = (np.sqrt(2.0) * V * b) @ cmat + d @ cmat
        return np.concatenate([A + 0.5, -A + 0.5, r, spatial, r], axis=-1)

    def x_map(Vbar):
        rho = 0.5 * (1.0 + np.sum((Vbar * bbar) ** 2, axis=-1))
        q = (0.5 * np.sum(Vbar**2 * bbar, axis=-1) + 0.5 * phi) / rho
        w = Vbar * (1.0 - q[..., None] * bbar) + d
        return np.concatenate([q[..., None], w @ cmat], axis=-1)

    def xi_eval(Vbar):
        rho = 0.5 * (1.0 + np.sum((Vbar * bbar) ** 2, axis=-1))[..., None]
        return np.concatenate([rho - 1.0, (Vbar * bbar) @ cmat], axis=-1) / rho

    chart = closed_form(x_map, xi_eval, n=n, name="constructed",
                        params={"b": b.tolist(), "phi": phi})
    return ConstructedMaps(constants=c, position=position, normal_map=normal_map, chart=chart)


# The keys of ``frobenius_report``, in its order.
FROBENIUS_RESIDUALS = ("mixed_partials", "second_equation", "eta_derivative",
                       "tangent_diagonality")


def frobenius_report(maps: ConstructedMaps, grid: np.ndarray) -> dict:
    """Residuals of the integrability conditions at each point of the output.

    Over the v-grid and from the degree-2 Taylor polynomials of
    ``position`` and ``normal_map`` about it, with the points on axis 0:
    the mixed partials of Y, the diagonal second-order equation
    Y_,ii/g_ii = N + b_i P with the constant N = (0,0,1,0...,1), the
    first-order equation eta_,i = b_i Y_,i and the off-diagonal entries
    of <Y_,i, Y_,j>.  The general equation has the term
    g_ii,i Y_,i/(2 g_ii^2) too, but g_ii = 2 |C row i|^2 = 2 in v
    coordinates, so g_ii,i = 2 <Y_,ii, Y_,i> is 0 and the term is left out.
    """
    c = maps.constants
    n = c.n
    signs = laguerre_signs(n)
    grid = np.atleast_2d(np.asarray(grid, dtype=float))

    V = taylor.variables(grid, 2)
    _, dY, ddY = maps.position(V).partials()  # (m, a, n+4), (m, a, b, n+4)
    deta = maps.normal_map(V).partials()[1]

    off = ~np.eye(n, dtype=bool)
    idx = np.arange(n)
    gram = np.einsum("mal,l,mbl->mab", dY, signs, dY)
    lhs = ddY[:, idx, idx] / gram[:, idx, idx, None]
    N_const = np.zeros(n + 4)
    N_const[[2, -1]] = 1.0
    rhs = N_const + c.b[:, None] * p_vector(n + 4)
    return dict(zip(FROBENIUS_RESIDUALS, (
        ddY[:, off], lhs - rhs, deta - c.b[None, :, None] * dY, gram[:, off])))
