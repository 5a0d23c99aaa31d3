"""Central finite-difference stencils for batched field evaluation.

A *field* here is any vectorised callable ``f(U) -> array`` taking points
``U`` of shape (m, n) and returning values of shape (m, ...).  The
helpers below collect every stencil point for the whole batch, evaluate
the field once, and contract with the stencil weights, which keeps the
per-point Python overhead negligible.
"""

from __future__ import annotations

import numpy as np

from .errors import MarginError

__all__ = [
    "FIRST_OFFSETS",
    "FIRST_WEIGHTS",
    "SECOND_OFFSETS",
    "SECOND_WEIGHTS",
    "check_margin",
    "grad_field",
    "hess_field",
]

FIRST_OFFSETS = {2: (-1, 1), 4: (-2, -1, 1, 2)}
FIRST_WEIGHTS = {
    2: (-0.5, 0.5),
    4: (1.0 / 12.0, -8.0 / 12.0, 8.0 / 12.0, -1.0 / 12.0),
}
SECOND_OFFSETS = {2: (-1, 0, 1), 4: (-2, -1, 0, 1, 2)}
SECOND_WEIGHTS = {
    2: (1.0, -2.0, 1.0),
    4: (-1.0 / 12.0, 16.0 / 12.0, -30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0),
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


def _eval_points(f, points: np.ndarray):
    """Evaluate f on stacked points (..., m, n), restoring leading shape."""
    lead = points.shape[:-2]
    m, n = points.shape[-2:]
    flat = points.reshape(-1, n)
    vals = np.asarray(f(flat))
    return vals.reshape(lead + (m,) + vals.shape[1:])


def grad_field(f, U: np.ndarray, h: float, order: int = 4) -> np.ndarray:
    """All first partials of a field: returns shape (m, n, ...)."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    m, n = U.shape
    offsets = FIRST_OFFSETS[order]
    weights = FIRST_WEIGHTS[order]
    pts = np.empty((n, len(offsets), m, n))
    for axis in range(n):
        for j, off in enumerate(offsets):
            pts[axis, j] = U
            pts[axis, j, :, axis] += off * h
    vals = _eval_points(f, pts)  # (n, n_off, m, ...)
    w = np.array(weights) / h
    w = w.reshape((1, len(offsets)) + (1,) * (vals.ndim - 2))
    out = np.sum(vals * w, axis=1)  # (n, m, ...)
    return np.moveaxis(out, 0, 1)


def hess_field(f, U: np.ndarray, h: float, order: int = 4) -> np.ndarray:
    """All second partials of a field: returns shape (m, n, n, ...).

    Pure partials use the one-dimensional second-derivative stencil,
    mixed partials the tensor product of two first-derivative stencils.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    m, n = U.shape

    off2 = SECOND_OFFSETS[order]
    w2 = np.array(SECOND_WEIGHTS[order]) / h**2
    pure_pts = np.empty((n, len(off2), m, n))
    for axis in range(n):
        for j, off in enumerate(off2):
            pure_pts[axis, j] = U
            pure_pts[axis, j, :, axis] += off * h
    pure_vals = _eval_points(f, pure_pts)
    wp = w2.reshape((1, len(off2)) + (1,) * (pure_vals.ndim - 2))
    pure = np.sum(pure_vals * wp, axis=1)  # (n, m, ...)

    out_shape = (m, n, n) + pure.shape[2:]
    out = np.zeros(out_shape)
    for axis in range(n):
        out[:, axis, axis] = pure[axis]

    off1 = FIRST_OFFSETS[order]
    w1 = np.array(FIRST_WEIGHTS[order]) / h
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        k = len(off1)
        mixed_pts = np.empty((len(pairs), k, k, m, n))
        for p, (i, j) in enumerate(pairs):
            for a, oi in enumerate(off1):
                for b, oj in enumerate(off1):
                    mixed_pts[p, a, b] = U
                    mixed_pts[p, a, b, :, i] += oi * h
                    mixed_pts[p, a, b, :, j] += oj * h
        mixed_vals = _eval_points(f, mixed_pts)  # (pairs, k, k, m, ...)
        ww = np.einsum("a,b->ab", w1, w1)
        ww = ww.reshape((1, k, k) + (1,) * (mixed_vals.ndim - 3))
        mixed = np.sum(mixed_vals * ww, axis=(1, 2))  # (pairs, m, ...)
        for p, (i, j) in enumerate(pairs):
            out[:, i, j] = mixed[p]
            out[:, j, i] = mixed[p]
    return out
