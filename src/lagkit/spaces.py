"""Indefinite inner products, the vector P and Laguerre-group tests.

Two signature conventions are used throughout:

* ``laguerre_space(n)`` is R^(n+4) with minus signs on axes 1 and n+4,
  the ambient space of the light-cone lift of a hypersurface in R^(n+1).
* ``minkowski_space(n)`` is R^(n+2) with a minus sign on the last axis,
  the ambient space of the degenerate-hyperplane model.

Vectors are plain coordinate arrays.  Group elements act on ROW vectors
from the right, ``v -> v @ T``.  A space stores its signature as the
diagonal +-1 array ``signs``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

__all__ = [
    "SignatureSpace",
    "laguerre_space",
    "minkowski_space",
    "p_vector",
    "is_laguerre_transform",
    "random_lg_rotation",
]


@dataclass(frozen=True)
class SignatureSpace:
    """R^dimension with a diagonal +-1 bilinear form.

    ``negative_axes`` uses 1-based axis indices (axis 1 is the first
    coordinate), matching the usual mathematical labelling.
    """

    dimension: int
    negative_axes: tuple[int, ...]
    signs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise DimensionError(f"dimension must be positive, got {self.dimension}")
        axes = tuple(sorted(set(self.negative_axes)))
        if any(a < 1 or a > self.dimension for a in axes):
            raise DimensionError(
                f"negative axes {axes} outside 1..{self.dimension}"
            )
        object.__setattr__(self, "negative_axes", axes)
        signs = np.ones(self.dimension)
        for a in axes:
            signs[a - 1] = -1.0
        signs.flags.writeable = False
        object.__setattr__(self, "signs", signs)

    def dot(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Batched inner product of raw coordinate arrays (..., dimension)."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if u.shape[-1] != self.dimension or v.shape[-1] != self.dimension:
            raise DimensionError(
                f"vectors of length {u.shape[-1]}/{v.shape[-1]} in a "
                f"{self.dimension}-dimensional space"
            )
        return np.sum(self.signs * u * v, axis=-1)


def laguerre_space(n: int) -> SignatureSpace:
    """Ambient space R^(n+4) with minus signs on axes 1 and n+4."""
    return SignatureSpace(n + 4, (1, n + 4))


def minkowski_space(n: int) -> SignatureSpace:
    """Ambient space R^(n+2) with a minus sign on the last axis."""
    return SignatureSpace(n + 2, (n + 2,))


def p_vector(space: SignatureSpace) -> np.ndarray:
    """The distinguished lightlike vector P = (1, -1, 0, ..., 0)."""
    coords = np.zeros(space.dimension)
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
    space = laguerre_space(dim - 4)
    G = np.diag(space.signs)
    if not np.all(np.abs(T.T @ G @ T - G) <= tol):
        return False
    P = p_vector(space)
    return bool(np.all(np.abs(P @ T - P) <= tol))


def random_lg_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    """A seeded Laguerre-group element rotating the positive axes 3..n+3.

    The rotation block is Haar-distributed in SO(n+1); axes 1, 2 and n+4
    are fixed, so P is preserved and the signature form is untouched.
    """
    m = n + 1
    A = rng.standard_normal((m, m))
    Q, R = np.linalg.qr(A)
    Q = Q * np.sign(np.diag(R))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    T = np.eye(n + 4)
    T[2 : n + 3, 2 : n + 3] = Q
    return T
