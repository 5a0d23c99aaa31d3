"""Light-cone lift of a curvature frame, batched over parameter points.

For a hypersurface x with unit normal xi, curvature radii r_i, mean
radius r and rho = sqrt(sum (r - r_i)^2), the lift into the light cone
of the signature-(n+2,2) space is

    Y   = rho * (x.xi, -x.xi, xi, 1),
    eta = ((1+|x|^2)/2, (1-|x|^2)/2, x, 0) + r * (x.xi, -x.xi, xi, 1),

with invariant metric g = rho^2 * III in chart coordinates.  r and rho
come from traces (``radius_traces``), so the lift of a batch needs no
eigendecomposition; the principal frame (k, e, r_i, b) is computed on
first read, which ``invariants`` does on the grid rows only.  The frame
tangent vectors E_i(Y) use the orthonormal realisation
E_i = rho^-1 r_i e_i; on charts parametrized by curvature lines this is
the diagonal frame E_i = g_ii^(-1/2) d/du_i.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from .charts import (
    Chart,
    forms_arrays,
    irregular_masks,
    jet_arrays,
    principal_arrays,
    radius_traces,
)
from .errors import DegeneracyError, UmbilicError, VanishingCurvatureError
from .spaces import SignatureSpace, laguerre_space

__all__ = [
    "LiftBatch",
    "lift_arrays",
    "frame_coefficients",
]


@dataclass(frozen=True)
class LiftBatch:
    """Batched pointwise data of the lift over a set of parameter points.

    The principal frame ``k``, ``e``, ``r_i`` and ``b`` is computed from
    I and II on first read.
    """

    space: SignatureSpace
    u: np.ndarray        # (m, n)
    x: np.ndarray        # (m, n+1)
    xi: np.ndarray       # (m, n+1)
    r: np.ndarray        # (m,)
    rho: np.ndarray      # (m,)
    Y: np.ndarray        # (m, n+4)
    eta: np.ndarray      # (m, n+4)
    I: np.ndarray        # (m, n, n)
    II: np.ndarray       # (m, n, n)
    III: np.ndarray      # (m, n, n)
    g: np.ndarray        # (m, n, n)

    def rows(self, index) -> "LiftBatch":
        """The lift at the points ``index`` (a slice or index array) selects."""
        return replace(self, **{
            f.name: getattr(self, f.name)[index] for f in fields(self) if f.name != "space"
        })

    @cached_property
    def _principal(self):
        return principal_arrays(self.I, self.II)

    @property
    def k(self) -> np.ndarray:
        """(m, n) principal curvatures, descending."""
        return self._principal[0]

    @property
    def e(self) -> np.ndarray:
        """(m, n, n) unit principal directions (rows)."""
        return self._principal[1]

    @cached_property
    def r_i(self) -> np.ndarray:
        """(m, n) curvature radii 1/k_i."""
        return 1.0 / self.k

    @cached_property
    def b(self) -> np.ndarray:
        """(m, n) Laguerre principal curvatures (r - r_i)/rho."""
        return (self.r[:, None] - self.r_i) / self.rho[:, None]


def _lift_from_scalars(x, xi, r, rho):
    m, d = x.shape
    dot = np.sum(x * xi, axis=-1)
    y = np.empty((m, d + 3))
    y[:, 0] = dot
    y[:, 1] = -dot
    y[:, 2:-1] = xi
    y[:, -1] = 1.0
    Y = rho[:, None] * y
    eta = np.empty_like(y)
    sq = np.sum(x * x, axis=-1)
    eta[:, 0] = 0.5 * (1.0 + sq)
    eta[:, 1] = 0.5 * (1.0 - sq)
    eta[:, 2:-1] = x
    eta[:, -1] = 0.0
    eta = eta + r[:, None] * y
    return Y, eta


def lift_arrays(chart: Chart, U: np.ndarray) -> LiftBatch:
    """Evaluate the full pointwise lift on a batch of parameter points.

    Raises UmbilicError / VanishingCurvatureError when a point violates
    the curvature-regularity assumptions, and DegeneracyError if the
    invariant metric loses positive definiteness or r, rho are not
    finite.  Only the points ``radius_traces`` does not clear go through
    the principal decomposition for the regularity test.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    x, dx, ddx, xi = jet_arrays(chart, U)
    I, II, III = forms_arrays(dx, ddx, xi)
    r, rho, cleared = radius_traces(I, II, III)

    rest = ~cleared
    if np.any(rest):
        umbilic, vanishing = irregular_masks(principal_arrays(I[rest], II[rest])[0])
        if np.any(umbilic):
            raise UmbilicError("umbilic point in the sampled batch")
        if np.any(vanishing):
            raise VanishingCurvatureError("vanishing principal curvature in the batch")

    Y, eta = _lift_from_scalars(x, xi, r, rho)
    g = rho[:, None, None] ** 2 * III
    positive = np.all(np.diagonal(g, axis1=-2, axis2=-1) > 0.0, axis=-1)
    if not np.all(positive & np.isfinite(r) & np.isfinite(rho)):
        raise DegeneracyError("invariant metric lost positive definiteness")
    return LiftBatch(
        space=laguerre_space(chart.n),
        u=U, x=x, xi=xi, r=r, rho=rho, Y=Y, eta=eta, I=I, II=II, III=III, g=g,
    )


def frame_coefficients(lift: LiftBatch) -> np.ndarray:
    """Coordinate coefficients w[m, i, :] of the orthonormal fields E_i.

    E_i = rho^-1 r_i e_i with e_i the unit principal directions in the
    descending-curvature order.  It projects tensors at a point only: where
    curvatures repeat, ``eigh`` picks the e_i of an eigenspace arbitrarily.
    """
    scale = lift.r_i / lift.rho[:, None]
    return scale[:, :, None] * lift.e
