"""Central finite-difference stencils for batched field evaluation.

A *field* here is any vectorised callable ``f(U) -> array`` taking points
``U`` of shape (m, n) and returning values of shape (m, ...).  A
``Cloud`` collects every stencil point that the partials of a batch
need, the field is evaluated once on all of them, and the partials are
contracted from those values, which keeps the per-point Python overhead
negligible.  A partial d^alpha uses the tensor product of the
one-dimensional central stencils for the multiplicity of each axis in
alpha (B. Fornberg, *Generation of finite difference formulas on
arbitrarily spaced grids*, Math. Comp. 51, 1988).
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import combinations_with_replacement, permutations, product

import numpy as np

from .errors import MarginError

__all__ = ["CENTRAL", "Cloud", "check_margin", "grad_field", "hess_field"]

# One-dimensional central stencils: (derivative, accuracy order) -> (offsets, weights).
CENTRAL = {
    (1, 2): ((-1, 1), (-0.5, 0.5)),
    (1, 4): ((-2, -1, 1, 2), (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0)),
    (2, 2): ((-1, 0, 1), (1.0, -2.0, 1.0)),
    (2, 4): ((-2, -1, 0, 1, 2),
             (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0)),
    (3, 4): ((-3, -2, -1, 1, 2, 3), (1.0 / 8.0, -1.0, 13.0 / 8.0, -13.0 / 8.0, 1.0, -1.0 / 8.0)),
}


def check_margin(domain, U: np.ndarray, reach: float) -> None:
    """Raise MarginError unless every point keeps ``reach`` from the boundary."""
    U = np.atleast_2d(U)
    for axis, (lo, hi) in enumerate(domain):
        vals = U[:, axis]
        if np.any(vals - reach < lo) or np.any(vals + reach > hi):
            bad = U[(vals - reach < lo) | (vals + reach > hi)][0]
            raise MarginError(
                f"point {bad.tolist()} within {reach} of the domain boundary "
                f"on axis {axis + 1}"
            )


class Cloud:
    """Every stencil point that the partials of a batch need.

    ``steps[k - 1]`` is the step of the partials of order k, all at
    accuracy ``order``.  A point that several stencils share, such as
    the batch itself, appears once in ``points``; ``centre`` is the
    slice of ``points`` that holds the batch, or None when no stencil
    uses it.  Evaluate a field once on ``points`` and hand the values to
    ``partials``.
    """

    def __init__(self, U: np.ndarray, steps, order: int = 4):
        U = np.atleast_2d(np.asarray(U, dtype=float))
        m, n = U.shape
        shifts = {}          # displacement -> row block of ``points``
        self.stencils = []   # per derivative order: [(alpha, blocks, weights)]
        for k, h in enumerate(steps, start=1):
            stencils = []
            for alpha in combinations_with_replacement(range(n), k):
                counts = sorted(Counter(alpha).items())
                offsets = [CENTRAL[c, order][0] for _, c in counts]
                factors = [np.array(CENTRAL[c, order][1]) / h**c for _, c in counts]
                blocks = []
                for combo in product(*offsets):
                    shift = [0.0] * n
                    for (axis, _), off in zip(counts, combo):
                        shift[axis] = off * h
                    blocks.append(shifts.setdefault(tuple(shift), len(shifts)))
                stencils.append((alpha, blocks, reduce(np.multiply.outer, factors).ravel()))
            self.stencils.append(stencils)
        zero = shifts.get((0.0,) * n)
        self.centre = None if zero is None else slice(zero * m, (zero + 1) * m)
        self.m, self.n = m, n
        self.points = (U[None] + np.array(list(shifts))[:, None]).reshape(-1, n)

    def partials(self, values: np.ndarray) -> list:
        """[f, df, ddf, ...] at the batch from f evaluated on ``points``:
        f is None without a centre, and the order-k partials have shape
        (m, n, ..., n, ...) with k axes of length n.
        """
        flat = np.asarray(values)
        out = [None if self.centre is None else flat[self.centre]]
        values = flat.reshape((-1, self.m) + flat.shape[1:])
        for k, stencils in enumerate(self.stencils, start=1):
            d = np.empty((self.m,) + (self.n,) * k + values.shape[2:])
            for alpha, blocks, weights in stencils:
                w = weights.reshape((-1,) + (1,) * (values.ndim - 1))
                part = np.sum(values[blocks] * w, axis=0)
                for perm in set(permutations(alpha)):
                    d[(slice(None),) + perm] = part
            out.append(d)
        return out


def grad_field(f, U: np.ndarray, h: float, order: int = 4) -> np.ndarray:
    """All first partials of a field: returns shape (m, n, ...)."""
    cloud = Cloud(U, (h,), order)
    return cloud.partials(f(cloud.points))[1]


def hess_field(f, U: np.ndarray, h: float, order: int = 4) -> np.ndarray:
    """All second partials of a field: returns shape (m, n, n, ...).

    Pure partials use the one-dimensional second-derivative stencil,
    mixed partials the tensor product of two first-derivative stencils.
    """
    cloud = Cloud(U, (h, h), order)   # the first-partial points are among these
    return cloud.partials(f(cloud.points))[2]
