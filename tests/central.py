"""Fourth-order central differences of a batched field.

The independent reference that some tests hold exact Taylor partials
against.  A field ``f`` maps points (m, n) to values (m, ...); the
stencils are those of B. Fornberg, *Generation of finite difference
formulas on arbitrarily spaced grids*, Math. Comp. 51 (1988).
"""

import numpy as np

# (offset, weight) of the first- and second-derivative stencils.
FIRST = ((-2, 1.0 / 12.0), (-1, -8.0 / 12.0), (1, 8.0 / 12.0), (2, -1.0 / 12.0))
SECOND = ((-2, -1.0 / 12.0), (-1, 16.0 / 12.0), (0, -30.0 / 12.0),
          (1, 16.0 / 12.0), (2, -1.0 / 12.0))


def _shifted(U, shifts):
    V = np.array(U, dtype=float)
    for axis, step in shifts:
        V[:, axis] += step
    return V


def grad(f, U, h):
    """All first partials of ``f`` at U: shape (m, n, ...)."""
    U = np.atleast_2d(np.asarray(U, dtype=float))
    return np.stack([
        sum(w * f(_shifted(U, [(i, k * h)])) for k, w in FIRST) / h
        for i in range(U.shape[1])
    ], axis=1)


def hess(f, U, h):
    """All second partials of ``f`` at U: shape (m, n, n, ...).

    Pure partials use the second-derivative stencil, mixed partials the
    tensor product of two first-derivative stencils.
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    n = U.shape[1]
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = sum(w * f(_shifted(U, [(i, k * h)])) for k, w in SECOND) / h**2
        for j in range(i):
            rows[i][j] = rows[j][i] = sum(
                wi * wj * f(_shifted(U, [(i, ki * h), (j, kj * h)]))
                for ki, wi in FIRST for kj, wj in FIRST
            ) / h**2
    return np.stack([np.stack(row, axis=1) for row in rows], axis=1)
