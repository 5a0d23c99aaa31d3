"""Metric field geometry: Christoffel symbols, curvature, frame components.

These helpers are generic over any positive-definite coordinate metric
supplied as arrays, and return plain arrays; chart-specific assembly
lives in `invariants`.  They take the inverse metric from their caller
and invert nothing, so a caller that knows g^-1 (``invariants`` has
III^-1, and g = rho^2 III) inverts each metric once.  There is no
Laplace-Beltrami operator here: Delta f = g^ab Hess f_ab, and a caller
that forms Hess f (``invariants`` does, for log rho) takes its trace.
``frame_components`` projects a tensor on a frame one index at a time,
each step an einsum of two operands that keeps the memory layout of its
inputs; the curvature on a frame w is ``frame_components(lowered_riemann(
...), w)``.  Index conventions:

* ``gamma[m, k, i, j]`` is Gamma^k_ij (symmetric in i, j),
* ``riemann[m, a, b, c, d]`` stores <R(d_a, d_b) d_c, d_d> with the
  curvature operator in do Carmo's sign convention,
  R(X, Y)Z = nabla_Y nabla_X Z - nabla_X nabla_Y Z + nabla_[X,Y] Z,
  under which R(E_i, E_j, E_i, E_j) is the sectional curvature on a
  constant-curvature space (unit sphere: R_{th,ph,th,ph} = +sin^2 th)
  and the structure-equation relation
  R_ijkl = L_jk d_il + L_il d_jk - L_ik d_jl - L_jl d_ik holds.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "christoffels",
    "lowered_riemann",
    "frame_components",
]


def christoffels(g_inv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^k_ij from the inverse metric and the metric's first partials.

    ``dg[m, a, i, j]`` holds d_a g_ij.  Returns (m, k, i, j).
    """
    # d_i g_jl + d_j g_il - d_l g_ij, indexed [m, l, i, j]
    sym = (
        np.einsum("mijl->mlij", dg)
        + np.einsum("mjil->mlij", dg)
        - dg
    )
    return 0.5 * np.einsum("mkl,mlij->mkij", g_inv, sym)


def lowered_riemann(g: np.ndarray, g_inv: np.ndarray, dg: np.ndarray,
                    ddg: np.ndarray) -> np.ndarray:
    """Fully covariant curvature tensor from g, its inverse and its partials.

    ``ddg[m, a, b, i, j]`` holds d_a d_b g_ij.  Uses (do Carmo sign)

        R_abcd = -1/2 (g_bd,ac + g_ac,bd - g_bc,ad - g_ad,bc)
                 - Gamma_{m,bd} Gamma^m_ac + Gamma_{m,ad} Gamma^m_bc,

    where Gamma_{m,ij} = g_mk Gamma^k_ij.
    """
    gamma = christoffels(g_inv, dg)
    gamma_low = np.einsum("mkl,mlij->mkij", g, gamma)
    second = 0.5 * (
        np.einsum("macbd->mabcd", ddg)
        + np.einsum("mbdac->mabcd", ddg)
        - np.einsum("madbc->mabcd", ddg)
        - np.einsum("mbcad->mabcd", ddg)
    )
    quad = np.einsum("mkbd,mkac->mabcd", gamma_low, gamma) - np.einsum(
        "mkad,mkbc->mabcd", gamma_low, gamma
    )
    return -(second + quad)


def frame_components(t: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Frame components t_ij... = w_i^a w_j^b ... t_ab... of a coordinate
    tensor t (m, a, b, ...), one index at a time in index order: each step
    is one einsum of two operands, and no contraction path is searched."""
    for axis in range(1, t.ndim):
        t = np.moveaxis(np.einsum("mia,m...a->m...i", w, np.moveaxis(t, axis, -1)), -1, axis)
    return t
