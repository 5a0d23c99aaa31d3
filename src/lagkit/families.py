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
* ``torus_chart`` -- a torus of revolution, the standard two-curvature
  sanity surface, whose circles v = +-pi/2 of vanishing curvature are
  point errors.
* ``accepted`` -- the one check of the keys of a JSON object and the
  kinds of their values, which every object lagkit reads passes.

Every map, normals included, is written once for float points (..., n)
and Taylor seeds alike, and ``charts.closed_form`` holds a chart's two
maps as its evaluator and normal, so every chart's jet is the exact
Taylor polynomial of any degree.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .charts import Chart, closed_form
from .errors import ImmersionError, ParameterError

__all__ = [
    "HilfParams",
    "DegenerateChart",
    "hilf_chart",
    "degenerate_example",
    "laguerre_immersion_tau",
    "tau_chart",
    "torus_chart",
    "CATALOG",
]

@dataclass(frozen=True)
class HilfParams:
    """Parameters of the explicit family: s >= 2 distinct nonzero
    constants a_1..a_s with multiplicities summing to n, plus the shift
    phi."""

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
        try:  # numpy's refusal of a dimension it cannot hold, as bad input
            np.repeat(a, mult)
        except (OverflowError, MemoryError) as exc:
            raise ParameterError(f"multiplicities {list(mult)} give n = {sum(mult)}, "
                                 f"which numpy cannot repeat: {exc}") from exc
        if any(v == 0.0 for v in a):
            raise ParameterError("constants a_i must be nonzero")
        if len(set(a)) != len(a):
            raise ParameterError("constants a_i must be pairwise distinct")
        if len(a) < 2:
            raise ParameterError(
                f"need at least two distinct constants a_i, got {list(a)}: one constant "
                "gives a totally umbilic hypersurface")
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


def hilf_chart(params: HilfParams) -> Chart:
    """Chart of the explicit family, with Taylor jets and analytic normal."""
    A = params.coeffs
    phi = float(params.phi)

    def x_map(U):
        U2 = U**2
        W = (np.sum(A * U2, axis=-1) + phi) / (np.sum(A**2 * U2, axis=-1) + 1.0)
        return np.concatenate([W[..., None], U * (1.0 - W[..., None] * A)], axis=-1)

    def normal(U):
        S = np.sum(A**2 * U**2, axis=-1)[..., None]
        return np.concatenate([S - 1.0, 2.0 * A * U], axis=-1) / (S + 1.0)

    return closed_form(
        x_map, normal, n=params.n, name="hilf",
        params={"a": list(params.a), "multiplicities": list(params.multiplicities), "phi": phi})


@dataclass(frozen=True, eq=False)
class DegenerateChart:
    """A spacelike hypersurface in the degenerate hyperplane <x, nu> = 0
    of Minkowski space, together with its lightlike normal field.

    ``x_map`` and ``xi_map`` take float points and Taylor seeds alike;
    their values pair under ``spaces.minkowski_signs(n)``.
    """

    n: int
    x_map: Callable
    xi_map: Callable
    params: dict


def degenerate_example(params: HilfParams) -> DegenerateChart:
    """The model hypersurface x = (T/2, u, T/2), T = sum a_i |u_i|^2.

    The lightlike normal is solved from its three defining constraints,
    which gives xi = ((1 - S)/2, -a_1 u_1, ..., -(1 + S)/2) with
    S = sum a_i^2 |u_i|^2; the solved field satisfies all constraints to
    machine precision and maps onto the explicit Euclidean family.
    """
    A = params.coeffs

    def x_map(U):
        T = 0.5 * np.sum(A * U**2, axis=-1)[..., None]
        return np.concatenate([T, U, T], axis=-1)

    def xi_map(U):
        S = np.sum(A**2 * U**2, axis=-1)[..., None]
        return np.concatenate([0.5 * (1.0 - S), -A * U, -0.5 * (1.0 + S)], axis=-1)

    return DegenerateChart(
        n=params.n,
        x_map=x_map,
        xi_map=xi_map,
        params={"a": list(params.a), "multiplicities": list(params.multiplicities)},
    )


def laguerre_immersion_tau(x, xi):
    """Map (x, xi) on the degenerate model to (x', xi') in R^(n+1) x S^n.

    With x = (x1, x0, x1) and xi = (xi1 + 1, xi0, xi1) in coordinates,

        x'  = (-x1/xi1, x0 - (x1/xi1) xi0),
        xi' = (1 + 1/xi1, xi0/xi1).

    ``x`` and ``xi`` (..., n+2) are float arrays or Taylor polynomials.
    Requires xi1 != 0 (guaranteed on the model, where xi1 <= -1/2),
    which is checked on float input.
    """
    xi1, xi0 = xi[..., -1:], xi[..., 1:-1]
    if isinstance(xi1, np.ndarray) and np.any(np.abs(xi1) < 1e-14):
        raise ImmersionError("tau undefined where the normal component xi1 vanishes")
    ratio = x[..., -1:] / xi1
    x_out = np.concatenate([-ratio, x[..., 1:-1] - ratio * xi0], axis=-1)
    xi_out = np.concatenate([1.0 + 1.0 / xi1, xi0 / xi1], axis=-1)
    return x_out, xi_out


def tau_chart(deg: DegenerateChart) -> Chart:
    """Euclidean chart obtained by pushing a degenerate chart through tau;
    its map is the composition, so its jet is exact."""

    def x_map(U):
        return laguerre_immersion_tau(deg.x_map(U), deg.xi_map(U))[0]

    def normal(U):
        return laguerre_immersion_tau(deg.x_map(U), deg.xi_map(U))[1]

    return closed_form(x_map, normal, n=deg.n, name="tau-image", params=dict(deg.params))


def torus_chart(R: float, r_tube: float) -> Chart:
    """Torus of revolution with Taylor jets, at every parameter point.

    The analytic normal points into the tube, which makes the principal
    curvatures 1/r_tube along the tube and k2 = cos v / (R + r_tube cos v)
    along the axis of revolution: both positive where |v| < pi/2, of
    mixed signs where |v| > pi/2.  k2 vanishes on the circles v = +-pi/2,
    which ``charts.regularity`` reports point by point.
    """
    if not (np.isfinite(R) and R > r_tube > 0):
        raise ParameterError(f"need R > r_tube > 0, got R={R}, r_tube={r_tube}")

    def x_map(U):
        u, v = U[..., 0], U[..., 1]
        w = R + r_tube * np.cos(v)
        return np.stack([w * np.cos(u), w * np.sin(u), r_tube * np.sin(v)], axis=-1)

    def normal(U):
        u, v = U[..., 0], U[..., 1]
        return -np.stack([np.cos(v) * np.cos(u), np.cos(v) * np.sin(u), np.sin(v)], axis=-1)

    return closed_form(x_map, normal, n=2, name="torus",
                       params={"R": float(R), "r_tube": float(r_tube)})


def is_finite_number(value) -> bool:
    """Whether ``value`` is a finite JSON number: an int or a float, not a
    bool, within the float range (not NaN)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def is_number_list(value) -> bool:
    """Whether ``value`` is a flat list of finite JSON numbers."""
    return isinstance(value, list) and all(map(is_finite_number, value))


def json_text(value) -> str:
    """``value`` as an error line quotes it: its JSON text, cut after 40
    characters."""
    text = json.dumps(value, default=repr)
    return text if len(text) <= 40 else text[:40] + "..."


# Kinds of JSON value: a test, which returns False and never raises on
# any JSON value, and the kind's name in an error line.
NUMBER = (is_finite_number, "a finite JSON number")
NUMBERS = (is_number_list, "a flat list of finite JSON numbers")
OBJECT = (lambda value: isinstance(value, dict), "a JSON object")


def accepted(obj, what: str, **kinds: tuple) -> dict:
    """``obj`` itself if it is a JSON object of ``what``s whose every key
    is in ``kinds`` and whose every value passes its key's kind; else a
    ParameterError that names the unknown keys and the accepted ones, or
    the first key whose value is of another kind, quoting the value."""
    if not isinstance(obj, dict):
        raise ParameterError(f"{what}s take a JSON object, not {json_text(obj)}")
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        raise ParameterError(
            f"unknown {what}(s) {', '.join(map(repr, unknown))}; accepted: {', '.join(kinds)}")
    for key, value in obj.items():
        test, kind = kinds[key]
        if not test(value):
            raise ParameterError(f"{what} {key!r} takes {kind}, not {json_text(value)}")
    return obj


# The checked keys are keywords of ``HilfParams``, whose defaults hold;
# a defaults to (1, 2).
def _hilf_from_params(params: dict) -> Chart:
    params = accepted(params, "surface parameter", a=NUMBERS, multiplicities=NUMBERS, phi=NUMBER)
    return hilf_chart(HilfParams(**{"a": (1.0, 2.0), **params}))


def _degenerate_from_params(params: dict):
    params = accepted(params, "surface parameter", a=NUMBERS, multiplicities=NUMBERS)
    return degenerate_example(HilfParams(**{"a": (1.0, 2.0), **params}))


def _torus_from_params(params: dict) -> Chart:
    params = accepted(params, "surface parameter", R=NUMBER, r_tube=NUMBER)
    return torus_chart(float(params.get("R", 2.0)), float(params.get("r_tube", 1.0)))


CATALOG = {
    "hilf": _hilf_from_params,
    "degenerate-hilf": _degenerate_from_params,
    "torus": _torus_from_params,
}
