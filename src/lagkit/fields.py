"""Metric field geometry: Christoffel symbols, Laplacians, curvature.

These helpers are generic over any positive-definite coordinate metric
supplied as arrays; chart-specific assembly lives in `invariants`.
Index conventions:

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

from dataclasses import dataclass

import numpy as np

__all__ = [
    "christoffels",
    "laplacian",
    "lowered_riemann",
    "frame_riemann",
    "frame_connection",
    "MetricField",
]


def christoffels(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma^k_ij from the metric and its first partials.

    ``dg[m, a, i, j]`` holds d_a g_ij.  Returns (m, k, i, j).
    """
    g_inv = np.linalg.inv(g)
    # d_i g_jl + d_j g_il - d_l g_ij, indexed [m, l, i, j]
    sym = (
        np.einsum("mijl->mlij", dg)
        + np.einsum("mjil->mlij", dg)
        - dg
    )
    return 0.5 * np.einsum("mkl,mlij->mkij", g_inv, sym)


def laplacian(g: np.ndarray, gamma: np.ndarray, grad_f: np.ndarray, hess_f: np.ndarray):
    """Laplace-Beltrami of a (possibly vector-valued) function.

    grad_f: (m, a, ...), hess_f: (m, a, b, ...).  Implements
    g^ab (d_a d_b f - Gamma^k_ab d_k f), the divergence-of-gradient sign.
    """
    g_inv = np.linalg.inv(g)
    correction = np.einsum("mkab,mk...->mab...", gamma, grad_f)
    return np.einsum("mab,mab...->m...", g_inv, hess_f - correction)


def lowered_riemann(g: np.ndarray, dg: np.ndarray, ddg: np.ndarray) -> np.ndarray:
    """Fully covariant curvature tensor from g and its partials.

    ``ddg[m, a, b, i, j]`` holds d_a d_b g_ij.  Uses (do Carmo sign)

        R_abcd = -1/2 (g_bd,ac + g_ac,bd - g_bc,ad - g_ad,bc)
                 - Gamma_{m,bd} Gamma^m_ac + Gamma_{m,ad} Gamma^m_bc,

    where Gamma_{m,ij} = g_mk Gamma^k_ij.
    """
    gamma = christoffels(g, dg)
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


def frame_riemann(riemann: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Convert the coordinate curvature tensor to orthonormal-frame indices."""
    return np.einsum("mia,mjb,mkc,mld,mabcd->mijkl", w, w, w, w, riemann, optimize=True)


def frame_connection(
    w: np.ndarray, dw: np.ndarray, gamma: np.ndarray, g: np.ndarray
) -> np.ndarray:
    """Frame connection coefficients <nabla_{E_k} E_i, E_l> -> (m, k, i, l).

    ``dw[m, a, i, b]`` holds d_a of the frame coefficient w[i, b].
    These equal the structure-equation functions Gamma^l_ik.

    Only the tests call this, as an independent route to ``cov_B`` on
    charts with distinct curvatures; ``invariants`` avoids it because
    eigenvector derivatives are ill-posed where curvatures repeat.
    """
    # nabla_{E_k} E_i = w_k^a (d_a w_i^b + w_i^c Gamma^b_ac) d_b
    cov = np.einsum("mka,maib->mkib", w, dw) + np.einsum(
        "mka,mic,mbac->mkib", w, w, gamma
    )
    return np.einsum("mkib,mbc,mlc->mkil", cov, g, w)


@dataclass(frozen=True)
class MetricField:
    """Orthonormal-frame curvature tensor of a metric over a grid."""

    riemann_frame: np.ndarray      # orthonormal indices (m, i, j, k, l)

    def antisymmetry_residual(self) -> float:
        r = self.riemann_frame
        return float(
            max(
                np.max(np.abs(r + np.swapaxes(r, 1, 2))),
                np.max(np.abs(r + np.swapaxes(r, 3, 4))),
            )
        )
