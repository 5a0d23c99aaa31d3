"""Light-cone lift of a curvature frame, batched over parameter points.

For a hypersurface x with unit normal xi, curvature radii r_i, mean
radius r and rho = sqrt(sum (r - r_i)^2), the lift into the light cone
of the signature-(n+2,2) space is

    Y   = rho * (x.xi, -x.xi, xi, 1),
    eta = ((1+|x|^2)/2, (1-|x|^2)/2, x, 0) + r * (x.xi, -x.xi, xi, 1),

with invariant metric g = rho^2 * III in chart coordinates.  r and rho
come from traces (``radius_traces``); the principal frame k, e comes
from the one ``eigh`` per point that decides its regularity
(``regularity``), and r_i and b from k on first read.  ``lift_batch``
decides the regularity of every point once, from the values of a jet,
and gives each point its reason; ``invariants.analyze``, its one
caller, keeps the regular rows.  The frame tangent vectors E_i(Y) use
the orthonormal realisation E_i = rho^-1 r_i e_i; on charts
parametrized by curvature lines this is the diagonal frame E_i =
g_ii^(-1/2) d/du_i.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .charts import Chart, forms_arrays, regularity
from .spaces import SignatureSpace, laguerre_space

__all__ = [
    "LiftBatch",
    "lift_vector",
    "lift_batch",
    "frame_coefficients",
]


@dataclass(frozen=True)
class LiftBatch:
    """Batched pointwise data of the lift over a set of parameter points.

    ``reason`` is "" at a regular point, else the first reason of
    ``IRREGULAR`` that holds there; ``lift[rows]`` keeps the given rows.
    ``k`` and ``e`` are NaN on rank-deficient rows.
    """

    space: SignatureSpace
    u: np.ndarray        # (m, n)
    x: np.ndarray        # (m, n+1)
    r: np.ndarray        # (m,)
    rho: np.ndarray      # (m,)
    Y: np.ndarray        # (m, n+4)
    eta: np.ndarray      # (m, n+4)
    II: np.ndarray       # (m, n, n)
    III: np.ndarray      # (m, n, n)
    g: np.ndarray        # (m, n, n)
    k: np.ndarray        # (m, n): principal curvatures, descending
    e: np.ndarray        # (m, n, n): unit principal directions (rows)
    reason: np.ndarray   # (m,)

    def __getitem__(self, rows) -> "LiftBatch":
        return replace(self, **{f.name: getattr(self, f.name)[rows]
                                for f in fields(self) if f.name != "space"})

    @cached_property
    def r_i(self) -> np.ndarray:
        """(m, n) curvature radii 1/k_i."""
        return 1.0 / self.k

    @cached_property
    def b(self) -> np.ndarray:
        """(m, n) Laguerre principal curvatures (r - r_i)/rho."""
        return (self.r[:, None] - self.r_i) / self.rho[:, None]


def lift_vector(x, xi):
    """y = (x.xi, -x.xi, xi, 1), so that Y = rho y and eta = eta_0 + r y;
    ``x`` and ``xi`` (m, n+1) may be arrays or Taylor polynomials."""
    dot = np.sum(x * xi, axis=-1)[..., None]
    return np.concatenate([dot, -dot, xi, 0.0 * dot + 1.0], axis=-1)


def lift_batch(chart: Chart, U: np.ndarray, jets) -> LiftBatch:
    """The lift at every point of U (m, n), with one ``regularity`` reason
    per point; ``jets`` is the (x, dx, ddx, xi) of ``jet_arrays`` at U,
    of which the lift reads the value of x."""
    x, dx, ddx, xi = jets
    x = x.value
    I, II, III, deficient, L = forms_arrays(dx, ddx, xi)
    r, rho, k, e, reason = regularity(I, II, III, deficient, L)
    y = lift_vector(x, xi)
    sq = np.sum(x * x, axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):   # at irregular points
        Y = rho[:, None] * y
        eta = np.concatenate([0.5 * (1.0 + sq)[:, None], 0.5 * (1.0 - sq)[:, None], x,
                              np.zeros((len(x), 1))], axis=1) + r[:, None] * y
        g = rho[:, None, None] ** 2 * III
    return LiftBatch(space=laguerre_space(chart.n), u=U, x=x, r=r, rho=rho, Y=Y, eta=eta,
                     II=II, III=III, g=g, k=k, e=e, reason=reason)


def frame_coefficients(lift: LiftBatch) -> np.ndarray:
    """Coordinate coefficients w[m, i, :] of the orthonormal fields E_i.

    E_i = rho^-1 r_i e_i with e_i the unit principal directions in the
    descending-curvature order.  It projects tensors at a point only: where
    curvatures repeat, ``eigh`` picks the e_i of an eigenspace arbitrarily.
    """
    scale = lift.r_i / lift.rho[:, None]
    return scale[:, :, None] * lift.e
