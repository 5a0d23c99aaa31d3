"""Indefinite inner products, the vector P and Laguerre-group tests.

A signature is its diagonal +-1 vector, and ``dot`` is the one pairing.
Two signatures are used throughout:

* ``laguerre_signs(n)`` is R^(n+4) with minus signs on axes 1 and n+4,
  the ambient space of the light-cone lift of a hypersurface in R^(n+1).
* ``minkowski_signs(n)`` is R^(n+2) with a minus sign on the last axis,
  the ambient space of the degenerate-hyperplane model.

Vectors are plain coordinate arrays.  Group elements act on ROW vectors
from the right, ``v -> v @ T``.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

__all__ = [
    "laguerre_signs",
    "minkowski_signs",
    "dot",
    "p_vector",
    "is_laguerre_transform",
]


def laguerre_signs(n: int) -> np.ndarray:
    """The signature of R^(n+4): minus signs on axes 1 and n+4."""
    signs = np.ones(n + 4)
    signs[[0, -1]] = -1.0
    return signs


def minkowski_signs(n: int) -> np.ndarray:
    """The signature of R^(n+2): a minus sign on the last axis."""
    signs = np.ones(n + 2)
    signs[-1] = -1.0
    return signs


def dot(signs: np.ndarray, u, v) -> np.ndarray:
    """Batched inner product of coordinate arrays (..., len(signs)), in
    the dtype of the operands."""
    if np.shape(u)[-1] != len(signs) or np.shape(v)[-1] != len(signs):
        raise DimensionError(
            f"vectors of length {np.shape(u)[-1]}/{np.shape(v)[-1]} in a "
            f"{len(signs)}-dimensional space"
        )
    return np.sum(signs * u * v, axis=-1)


def p_vector(dimension: int) -> np.ndarray:
    """The distinguished lightlike vector P = (1, -1, 0, ..., 0) of R^dimension."""
    coords = np.zeros(dimension)
    coords[0] = 1.0
    coords[1] = -1.0
    return coords


def is_laguerre_transform(T: np.ndarray, tol: float = 1e-10) -> bool:
    """Membership test for the group of Laguerre transformations.

    ``T`` must (a) preserve the signature form, T' G T = G entrywise
    within ``tol``, and (b) fix the row vector P, P @ T = P within
    ``tol``.  The space is inferred from the matrix size (n+4).
    """
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {T.shape}")
    dim = T.shape[0]
    if dim < 5:
        raise DimensionError(f"group matrices have size >= 5, got {dim}")
    G = np.diag(laguerre_signs(dim - 4))
    if not np.all(np.abs(T.T @ G @ T - G) <= tol):
        return False
    P = p_vector(dim)
    return bool(np.all(np.abs(P @ T - P) <= tol))
