"""Invariants of the light-cone lift, computed two independent ways.

For a hypersurface x with unit normal xi, curvature radii r_i, mean
radius r and rho = sqrt(sum (r - r_i)^2), the lift into the light cone
of the signature-(n+2,2) space (``spaces.laguerre_signs``) is

    Y   = rho y,   y = (x.xi, -x.xi, xi, 1)   (``lift_vector``),
    eta = ((1+|x|^2)/2, (1-|x|^2)/2, x, 0) + r y,

with invariant metric g = rho^2 III in chart coordinates.  The frame
tangent vectors E_i(Y) use the orthonormal realisation E_i = rho^-1 r_i
e_i (``frame_coefficients``), e_i the unit principal directions; on
charts parametrized by curvature lines this is the diagonal frame E_i
= g_ii^(-1/2) d/du_i.

Closed forms, with b_i = (r - r_i)/rho, f = log rho, and Hess and grad
those of III on the III-orthonormal frame E'_i = rho E_i:

    B_ij = b_i delta_ij,
    C_i  = -rho^-2 r_i { e_i(r) - (r - r_i) e_i(f) },
    L_ij = rho^-2 ( Hess f(E'_i, E'_j) - E'_i(f) E'_j(f)
                    + (|grad f|^2 - 1) delta_ij / 2 ).

Structural values are coordinate tensors, projected on the principal
frame E_i = w_i^a d_a only at a point:

    L_ij = <E_i(N), E_j(Y)>,   C_i = -<E_i(N), eta>,
    B_ij = -<Hess Y(E_i, E_j), eta>,   Hess Y_ab = Y_ab - Gamma^k_ab Y_k,

using <N,eta> = <Y,eta> = <d_a Y,eta> = 0 and <eta,P> = -1.  The
second-order vector N is assembled from the Laplace-Beltrami operator of
the invariant metric (divergence-of-gradient sign, which is the choice
consistent with <Y,N> = -1):

    N = Delta_g Y / n + <Delta_g Y, Delta_g Y> Y / (2 n^2).

The closed form of L is the structural one written out.  With Y = rho y,
y = (x.xi, -x.xi, xi, 1): <y, y> = 0, <dy, dy> = III, and Hess_III y is
normal to dy, P and (0, ..., 0, 1), with <y, Hess_III y> = -III.  So N,
lightlike with <N, Y> = -1 and orthogonal to dY, P and eta, is

    rho N = (|grad f|^2 - 1) y / 2 + (0, ..., 0, 1) + E'_k(f) dy(E'_k) - r P,

rho <N, Hess_III y> = (1 - |grad f|^2) III / 2, and, as <N, dY> = 0 and
g = rho^2 III, L_ij = -<N, Hess_g Y(E_i, E_j)> = rho^-2 (Hess f - df df
- rho <N, Hess_III y>)(E'_i, E'_j).

nabla B is that of B_ab = rho (r III_ab - II_ab), b_i delta_ij on the
frame.  No eigenvector is differentiated, so repeated curvatures, whose
eigenspace frame ``eigh`` picks arbitrarily, change nothing.

``analyze(chart, grid)`` is the one way in.  Every partial is exact: one
jet of the grid gives x at each grid point as a Taylor polynomial of
degree 5 (``taylor``).  ``charts.regularity`` reads only the values of
x, dx and ddx and decides the regularity of every point once, with r
and rho from traces and the principal frame k, e from one ``eigh``; an
irregular point gets its ``reason`` and no fields.  ``analyze`` keeps
the regular rows (``x[rows]`` for the jet), copied only when a row is
irregular, and of them the values of x and xi0 in the chart jet's C
order, from which Y and eta are formed once N is read off.  The rows of
x and xi0 are then laid out once with the batch axis innermost in
memory (``taylor.batch_inner``), which every field keeps, so each
product step is one loop over the points.  Each step holds only what
its next step reads, and a cheap intermediate is formed again rather
than held (A. Griewank and A. Walther, *Evaluating Derivatives*, 2nd
ed., 2008, ch. 12).  x alone is kept, at degree 5, until II: dx of
degree 3 is gathered from it for I and freed before I^-1 is formed,
then gathered again, with the same bits, for dx . xi0 and again for the
tangential part of xi0, which is I^-1 (dx . xi0) . dx; II = ddx . xi
reads the degree-3 ddx one coefficient per product step
(``taylor.Grad``), so ddx is never formed.  The lift sees x only
through the support function x.xi, as the envelope of its tangent
hyperplanes (T. Li and C. Wang, Manuscripta Math. 122, 2007), so x.xi
of degree 3 is formed right after II and x is freed there.
Each field is a polynomial of the degree to which its partials are
read: Y of degree 3 (through I, II, r and rho, traces of II^-1 I), g
and log rho of degree 2, III, r and B of degree 1, each intermediate
freed after its last read; a truncation that outlives its parent is a
copy (``Taylor.copy``), as a view would keep the parent's buffer alive.
I^-1 of degree 3 lives only until the tangential part of xi0 is taken,
then is cut to degree 2, all III reads.  III is formed from a view of
II's degree-2 part before II is inverted, and I^-1 is freed there; II
is then cut to degree 1, all B reads, and the degree-3 II is handed to
``taylor.inv`` as its only reference, which frees it once A_0^-1 and
P = -N A_0^-1 are formed.  x.xi and xi are freed once y = (x.xi, -x.xi,
xi, 1) is formed, before Y = rho y.
N is formed once, in the same Taylor arithmetic, as a polynomial of
degree 1 from Y of degree 3 and g of degree 2 (Gamma, Hess Y and
Delta_g Y on the way), so its coefficients of degree 1 are d_c N; the
partials of III, r, B and log rho are read off before, so that Y and g
alone live through it, and dY is the value of its own dY.  Hess Y is
gathered from the degree-3 Y before Y is cut to a degree-2 copy, which
frees the degree-3 Y, and dY and the degree-1 Y are taken from that
copy; g^-1 is freed once Delta_g Y is formed.  Hess Y, Gamma and (after
N) Delta_g Y come back as values, each cut at its last read, and the
value of N and d_c N are read off at once, so no degree-1 Taylor lives
through the curvature projection.  The
curvature tensor of g is assembled from the partials of g as soon as
the frame is known.  The principal frame is read in the jet's C order,
so the lift and b keep their bits; the frame coefficients, g = rho^2
III and the lift arrays the projection reads are then laid out once as
the partials are, so the layout carries through the projection and
every array of the returned ``Analysis`` but the lift's x, r, rho, Y,
eta and k has the points innermost.  III is inverted
once, for Gamma of III, |grad log rho|^2 and g^-1 = III^-1 / rho^2.
The coordinate Hessian of log rho under III is formed once: its frame
components feed the closed form of L, and its trace against III^-1 is
the III Laplacian, Delta_III log rho = tr(III^-1 Hess log rho).
nabla B and the curvature of g are projected on the
frame one index at a time (``fields.frame_components``).  The returned
``Analysis`` holds copies of the values it keeps, no view of a Taylor,
and of the lift only what a check or the samples read; r_i = 1/k_i and
b_i = (r - r_i)/rho are formed on first read.
No chain rule is written by hand, and nothing is differentiated twice.

The memory of ``analyze`` is bounded by the budget ``BLOCK_BYTES`` (20
MB).  A point holds at most six times the bytes of its degree-5 jet of
x at the peak: the peak less what the call returns, per point, is 2.8
(the torus on 33^2) to 4.5 (hilf n = 3) jets, measured by tracemalloc
on hilf n = 2 to 5 on 3^n and the torus on 9^2 and 33^2.  A grid
whose points would hold more than the budget runs in blocks of rows, as
even as may be, one after another; every other grid, an empty one too,
runs as one block.  One block holds the jet of its rows and every
intermediate above, and what the blocks before it returned; so the peak
is at most what the call returns plus the budget.  Each block is a call
of its own, and a point's bits do not depend on its batch: a lone
regular row, whose batch axis would have no memory layout, is taken
twice.  Each field is joined from its blocks in their memory layout
into an array of its own, the grid too, after the peak; the blocks of a
field are freed once it is joined.  The three benchmark grids and hilf
n = 5 on 3^5 run in one block.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from math import comb
from typing import Optional

import numpy as np

from . import taylor
from .charts import JET_DEGREE, Chart, jet_arrays, regularity
from .errors import InputError
from .fields import christoffels, frame_components, lowered_riemann
from .spaces import laguerre_signs

__all__ = [
    "ClassificationResult",
    "Analysis",
    "analyze",
    "classify_analysis",
    "lift_vector",
    "frame_coefficients",
]


def lift_vector(dot, xi):
    """y = (x.xi, -x.xi, xi, 1), so that Y = rho y and eta = eta_0 + r y,
    from the support function ``dot`` = x.xi (m,) and the normal ``xi``
    (m, n+1), arrays or Taylor polynomials: the lift sees x only through
    x.xi."""
    dot = dot[..., None]
    return np.concatenate([dot, -dot, xi, 0.0 * dot + 1.0], axis=-1)


def frame_coefficients(r_i, rho, e):
    """Coordinate coefficients w[m, i, :] of the orthonormal fields E_i.

    E_i = rho^-1 r_i e_i with e_i (m, i, :) the unit principal directions
    in the descending-curvature order and r_i (m, i) their radii.  It
    projects tensors at a point only: where curvatures repeat, ``eigh``
    picks the e_i of an eigenspace arbitrarily.
    """
    return (r_i / rho[:, None])[:, :, None] * e


def _b_tensor(r, rho, III, II):
    """B_ab = rho (r III_ab - II_ab) (m, n, n), which is b_i delta_ij on the frame."""
    return rho[..., None, None] * (r[..., None, None] * III - II)


def _l_closed(inv_rho2, hess, Ep_f, grad_sq):
    """The closed form of L (module docstring) on the frame E'_i, f = log rho."""
    eye = taylor.batch_inner(np.broadcast_to(np.eye(hess.shape[-1]), hess.shape))
    outer = np.einsum("mi,mj->mij", Ep_f, Ep_f)
    return inv_rho2[:, None, None] * (hess - outer + 0.5 * (grad_sq - 1.0)[:, None, None] * eye)


def _taylor_fields(jet):
    """Y of degree k, g and log rho of degree k-1, III, r and B of degree
    k-2, from ``jet`` = [x, xi0] (x of degree k+2, xi0 the unit normal),
    which is emptied so that x is freed once II and x.xi are taken from
    it.  xi is xi0 less its tangential part, normalised; III = II I^-1
    II, formed before II is inverted so that I^-1 is freed first; the
    radii are the eigenvalues of M = II^-1 I, so r = tr M / n and rho^2 =
    tr (M - r Id)^2."""
    x, xi0 = jet
    jet.clear()
    n, k = x.n, x.d - 2
    # Laid out once with the batch axis innermost in memory, which every
    # field then keeps, so that each product step is one loop over the
    # points; the caller keeps the values of x and xi0 in the chart jet's
    # C order for the lift.
    x, xi0 = taylor.Taylor(taylor.batch_inner(x.c, 1), n, x.d, x.zero), taylor.batch_inner(xi0)
    dx = x.truncate(k + 1).grad()
    I = taylor.einsum("mia,mja->mij", dx, dx)
    del dx
    I_inv = taylor.inv(I)
    # The tangential part of xi0 has coefficients I^-1 (dx . xi0).  dx is
    # gathered from x again for dx . xi0, once I is inverted, and again for
    # v, not held: the same bits, from a buffer that is alive anyway.
    tangential = taylor.einsum("mia,ma->mi", x.truncate(k + 1).grad(), xi0)
    tangential = taylor.einsum("mij,mj->mi", I_inv, tangential)
    # III alone reads I^-1 from here, to degree k-1.
    I_inv = I_inv.truncate(k - 1).copy()
    v = xi0 - taylor.einsum("mi,mia->ma", tangential, x.truncate(k + 1).grad())
    del tangential
    xi = v / np.sqrt(np.sum(v * v, axis=-1))[..., None]
    del v
    # II reads ddx one coefficient per product step, so ddx is never
    # formed; then Y reads x only through x.xi, of degree k.
    II = taylor.einsum("mija,ma->mij", taylor.Grad(x, 2), xi)
    dot = np.sum(x.truncate(k) * xi, axis=-1)
    del x
    # III reads II to degree k-1, a view, and I^-1 is freed once it is
    # formed; B reads II to degree k-2, a copy, so that the degree-k II
    # goes to inv as its only reference, which frees it once A_0^-1 and P
    # are formed.
    II2 = II.truncate(k - 1)
    III = taylor.einsum("mij,mjk->mik", II2, taylor.einsum("mij,mjk->mik", I_inv, II2))
    del I_inv, II2
    full, II = [II], II.truncate(k - 2).copy()
    M = taylor.einsum("mij,mjk->mik", taylor.inv(full), I)
    idx = np.arange(n)
    r = np.sum(M[:, idx, idx], axis=-1) / n
    M.c[:, :, idx, idx] -= r.c[..., None]     # M - r Id; r has M's zero blocks
    rho2 = taylor.einsum("mij,mji->m", M, M)
    del I, M
    rho = np.sqrt(rho2)
    # x.xi and xi are freed before the product rho y.
    y = lift_vector(dot, xi)
    del dot, xi
    Y = rho[..., None] * y
    del y
    # A copy, so that the degree-k buffer is freed here, not at the return.
    rho2 = rho2.truncate(k - 1).copy()
    low = [t.truncate(k - 2) for t in (r, rho, III, II)]
    # III and r outlive the degree-2 III and degree-3 r: copies, not views.
    return {"Y": Y, "g": rho2[..., None, None] * III, "logrho": 0.5 * np.log(rho2),
            "III": low[2].copy(), "r": low[0].copy(), "B": _b_tensor(*low)}


def _n_taylor(Y, g, signs):
    """N as a Taylor polynomial of degree 1, then the values of Delta_g Y,
    Gamma^k_ab of g, Hess Y_ab = Y_ab - Gamma^k_ab Y_k and dY, copies in
    their layout, from Y of degree 3 (freed here if the caller keeps no
    reference) and g of degree 2; Gamma^k_ab Y_k is subtracted from Y_ab
    pair by pair, never built."""
    n = g.n
    g_inv, dg = taylor.inv(g.truncate(1)), g.grad()
    # Gamma^k_ij = g^kl (d_i g_jl + d_j g_il - d_l g_ij) / 2, A_lij = d_i g_jl
    A = dg.swapaxes(-3, -2)
    gamma = 0.5 * taylor.einsum("mkl,mlij->mkij", g_inv, A + A.swapaxes(-2, -1) - dg)
    del A, dg
    # Hess Y first, then Y cut to a degree-2 copy, which frees the degree-3
    # Y, and dY and the degree-1 Y taken from it: the same bits.
    hess_y, Y = Y.grad(2), Y.truncate(2).copy()
    dY, Y = Y.grad(), Y.truncate(1).copy()
    taylor.einsum("mkab,mkl->mabl", gamma, dY, subtract_from=hess_y)
    dY, gamma = (t.value.copy(order="K") for t in (dY, gamma))
    delta_y = taylor.einsum("mab,mabl->ml", g_inv, hess_y)
    del g_inv
    hess_y = hess_y.value.copy(order="K")
    nsq = np.sum(signs * delta_y * delta_y, axis=-1)
    N = delta_y / n + (nsq / (2.0 * n * n))[:, None] * Y
    return N, delta_y.value.copy(order="K"), gamma, hess_y, dY


@dataclass(frozen=True)
class Analysis:
    """Every invariant field over the regular points of a grid, from one
    jet of the grid; ``grid`` and the fields hold the regular rows only."""

    grid: np.ndarray
    reason: np.ndarray         # (M,) per input point: "" or its ``IRREGULAR`` reason
    x: np.ndarray              # (m, n+1)
    r: np.ndarray              # (m,): mean curvature radius
    rho: np.ndarray            # (m,)
    Y: np.ndarray              # (m, n+4)
    eta: np.ndarray            # (m, n+4)
    k: np.ndarray              # (m, n): principal curvatures, descending
    N: np.ndarray              # (m, n+4)
    delta_y: np.ndarray        # (m, n+4)
    E_Y: np.ndarray            # (m, i, n+4)
    E2_Y: np.ndarray           # (m, i, j, n+4): Hess Y(E_i, E_j)
    L_structural: np.ndarray   # (m, n, n)
    C_structural: np.ndarray   # (m, n)
    B_structural: np.ndarray   # (m, n, n)
    C_closed: np.ndarray       # (m, n)
    L_closed: np.ndarray       # (m, n, n)
    cov_B: np.ndarray          # (m, i, j, k): B_ij,k = nabla B(E_i, E_j, E_k)
    laplace_iii_logrho: np.ndarray   # (m,)
    grad_iii_logrho_sq: np.ndarray   # (m,)
    riemann_frame: np.ndarray  # (m, i, j, k, l): curvature of g on the frame

    @property
    def signs(self) -> np.ndarray:
        """(n+4,) the signature of the lift's space (``spaces.dot``)."""
        return laguerre_signs(self.grid.shape[1])

    @cached_property
    def r_i(self) -> np.ndarray:
        """(m, n) curvature radii 1/k_i."""
        return 1.0 / self.k

    @cached_property
    def b(self) -> np.ndarray:
        """(m, n) Laguerre principal curvatures (r - r_i)/rho."""
        return (self.r[:, None] - self.r_i) / self.rho[:, None]

    @property
    def lambda_estimate(self) -> float:
        m, n = self.grid.shape
        traces = np.trace(self.L_structural, axis1=-2, axis2=-1) / n
        return float(np.median(traces))


# The bytes one block of rows may hold at the peak of ``analyze``, beyond
# what the blocks before it return; a grid past it runs in row blocks.
BLOCK_BYTES = 20 * 10**6


def _point_bytes(n: int) -> int:
    """The bytes a point of an n-dimensional chart holds at the peak of
    ``analyze``, bounded by six times its jet of x."""
    return 6 * 8 * (n + 1) * comb(n + JET_DEGREE, JET_DEGREE)


def _row_blocks(n: int, points: int) -> int:
    """The number of row blocks ``analyze`` runs ``points`` points in, at
    least one."""
    return max(1, -(-points * _point_bytes(n) // BLOCK_BYTES))


def _joined(pieces: list) -> np.ndarray:
    """The blocks of one field, joined along the points in the memory
    layout of the largest (a block of no row has no layout)."""
    largest = max(pieces, key=len)
    out = np.empty_like(largest, shape=(sum(map(len, pieces)),) + largest.shape[1:])
    return np.concatenate(pieces, out=out)


def analyze(chart: Chart, grid: np.ndarray) -> Analysis:
    """Every invariant field of the lift over the regular points of a grid.

    One degree-5 jet of the grid decides the regularity of every point
    once (``charts.regularity``) and gives the lift and the Taylor fields
    of its regular rows; ``reason`` names what fails at each other point.
    Every grid runs in ``_row_blocks`` blocks of rows, more than one only
    if its points would hold more than ``BLOCK_BYTES`` at the peak; each
    block is a call of its own, and each field is joined from its blocks
    into an array of its own (module docstring).
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    parts = [_analysis_fields(chart, rows)
             for rows in np.array_split(grid, _row_blocks(chart.n, len(grid)))]
    return Analysis(**{name: _joined([part.pop(name) for part in parts])
                       for name in list(parts[0])})


def _analysis_fields(chart: Chart, grid: np.ndarray) -> dict:
    """The fields of ``Analysis`` over the rows ``grid``, from one jet."""
    x, dx, ddx, xi0 = jet_arrays(chart, grid)
    II, III, r, rho, k, e, reason = regularity(dx, ddx, xi0)
    del dx, ddx
    # The regular rows, copied only when a row is irregular.  A lone one is
    # taken twice and its first row returned: a batch of one row has no
    # memory layout, so einsum would sum its products in another order.
    rows = np.flatnonzero(reason == "")
    kept = rows.size
    if kept < len(grid) or kept == 1:
        rows = np.repeat(rows, 2) if kept == 1 else rows
        x, grid, xi0, II, III, r, rho, k, e = (
            t[rows] for t in (x, grid, xi0, II, III, r, rho, k, e))
    # The value of x copied, so that it does not keep the jet alive; it and
    # xi0 are kept in the chart jet's C order for the lift.
    x0 = x.value.copy()
    jet = [x, xi0]
    del x
    fields = _taylor_fields(jet)
    signs = laguerre_signs(chart.n)
    # Popped, each field is freed once its partials are read: those that
    # _n_taylor does not read, before it runs.
    jets = {name: fields.pop(name).partials()[1:] for name in ("III", "r", "B", "logrho")}
    # dY (m, a, n+4); Delta_g Y, Gamma and Hess Y come back as values.
    N, delta_y, gamma_g, hess_y, dY = _n_taylor(fields.pop("Y"), fields["g"], signs)
    jets["g"] = fields.pop("g").partials()[1:]
    dN = N.partials()[1]                     # (m, c, n+4)
    # A copy, so that the degree-1 N is freed here, before the projection,
    # and the returned Analysis keeps no Taylor alive.
    N = N.value.copy(order="K")
    # The lift, from the values of x and xi0 in the chart jet's C order.
    y = lift_vector(np.sum(x0 * xi0, axis=-1), xi0)
    sq = np.sum(x0 * x0, axis=-1)
    eta = np.concatenate([0.5 * (1.0 + sq)[:, None], 0.5 * (1.0 - sq)[:, None], x0,
                          np.zeros((len(x0), 1))], axis=1) + r[:, None] * y
    Y = rho[:, None] * y
    del y, sq, xi0
    # The frame is formed in the jet's C order, as b is; the frame, g =
    # rho^2 III and the lift arrays read below are then laid out once as
    # the partials are, batch axis innermost, and III inverted once:
    # g^-1 = III^-1 / rho^2.
    r_i = 1.0 / k
    iii_inv = taylor.batch_inner(np.linalg.inv(III))
    w, eta_inner, III, II, g, r_i = (taylor.batch_inner(t) for t in (
        frame_coefficients(r_i, rho, e), eta, III, II, rho[:, None, None] ** 2 * III, r_i))
    del e
    inv_rho2 = rho**-2
    g_inv = inv_rho2[:, None, None] * iii_inv
    riemann_frame = frame_components(lowered_riemann(g, g_inv, *jets.pop("g")), w)

    dIII = jets["III"][0]
    dlogrho, ddlogrho = jets["logrho"]       # (m, a), (m, a, b)
    dr = jets["r"][0]
    dB = jets["B"][0]                        # (m, c, a, b)

    E_Y = np.einsum("mia,mal->mil", w, dY)
    E2_Y = np.einsum("mia,mjb,mabl->mijl", w, w, hess_y)
    E_N = np.einsum("mia,mal->mil", w, dN)
    del dY, hess_y, dN

    L_structural = np.einsum("mil,l,mjl->mij", E_N, signs, E_Y)
    C_structural = -np.einsum("mil,l,ml->mi", E_N, signs, eta_inner)
    del E_N
    B_structural = -np.einsum("mijl,l,ml->mij", E2_Y, signs, eta_inner)
    # Directional derivatives along the III-orthonormal frame E'_i = rho E_i
    # and the unit principal directions e_i = E'_i / r_i.
    w_iii = rho[:, None, None] * w
    Ep_logrho = np.einsum("mia,ma->mi", w_iii, dlogrho)
    Ep_r = np.einsum("mia,ma->mi", w_iii, dr)
    e_logrho = Ep_logrho / r_i
    e_r = Ep_r / r_i

    C_closed = -inv_rho2[:, None] * r_i * (e_r - (r[:, None] - r_i) * e_logrho)

    gamma_iii = christoffels(iii_inv, dIII)
    hess_coord = ddlogrho - np.einsum("mkab,mk->mab", gamma_iii, dlogrho)
    hess_frame = np.einsum("mia,mjb,mab->mij", w_iii, w_iii, hess_coord)
    grad_sq = np.einsum("mab,ma,mb->m", iii_inv, dlogrho, dlogrho)
    lap_iii = np.einsum("mab,mab->m", iii_inv, hess_coord)

    L_closed = _l_closed(inv_rho2, hess_frame, Ep_logrho, grad_sq)

    # nabla_c B_ab = d_c B_ab - Gamma^k_ca B_kb - Gamma^k_cb B_ak, then B_ij,k
    gamma_b = np.einsum("mkca,mkb->mcab", gamma_g, _b_tensor(r, rho, III, II))
    cov_coord = dB - gamma_b - np.swapaxes(gamma_b, -1, -2)
    cov_B = frame_components(np.moveaxis(cov_coord, 1, -1), w)

    fields = dict(
        grid=grid, x=x0, r=r, rho=rho, Y=Y, eta=eta, k=k,
        N=N, delta_y=delta_y, E_Y=E_Y, E2_Y=E2_Y,
        L_structural=L_structural, C_structural=C_structural,
        B_structural=B_structural,
        C_closed=C_closed, L_closed=L_closed, cov_B=cov_B,
        laplace_iii_logrho=lap_iii, grad_iii_logrho_sq=grad_sq,
        riemann_frame=riemann_frame,
    )
    return {"reason": reason, **{name: t[:kept] for name, t in fields.items()}}


# The bound on max rho |C| with max rho^2 |L - lambda I| (isotropic) or
# with the spread of b (isoparametric), also the tolerance of the checks
# that read the classification.
CLASSIFICATION_TOL = 1e-5


@dataclass(frozen=True)
class ClassificationResult:
    """Grid-level classification of a chart by its invariants, on scales
    that a dilation x -> s x keeps: max rho^2 |L - lambda I|, max rho |C| and
    lambda max rho^2, of the bound rho^2 < 1/(2 lambda).  The check rows
    ``eigenvalue_sign`` and ``isotropic_isoparametric_lambda_zero`` give the
    verdicts lambda >= 0 and lambda = 0."""

    is_isotropic: bool
    lambda_estimate: float
    is_isoparametric: bool
    alpha: Optional[np.ndarray]
    b_hat: np.ndarray
    max_abs_rho_c: float
    rho2_l_identity_deviation: float
    lambda_rho2_max: float
    b_spread: float
    alpha_spread: Optional[float]

    def to_dict(self) -> dict:
        return {**asdict(self), "alpha": None if self.alpha is None else self.alpha.tolist(),
                "b_hat": self.b_hat.tolist()}


def classify_analysis(a: Analysis) -> ClassificationResult:
    """Classification from a completed analysis (>= 2 grid points)."""
    m, n = a.grid.shape
    if m < 2:
        raise InputError("classification needs at least two grid points")
    lam = a.lambda_estimate
    rho2 = a.rho**2
    max_c = float(np.max(np.abs(a.rho[:, None] * a.C_closed)))
    l_dev = float(np.max(np.abs(rho2[:, None, None] * (a.L_structural - lam * np.eye(n)))))
    b_sorted = np.sort(a.b, axis=1)
    b_hat = np.mean(b_sorted, axis=0)
    b_spread = float(np.max(np.ptp(b_sorted, axis=0)))

    is_isotropic = max_c <= CLASSIFICATION_TOL and l_dev <= CLASSIFICATION_TOL
    is_isoparametric = max_c <= CLASSIFICATION_TOL and b_spread <= CLASSIFICATION_TOL

    alpha = None
    alpha_spread = None
    if is_isotropic:
        alpha_field = a.N - lam * a.Y
        alpha = np.mean(alpha_field, axis=0)
        alpha_spread = float(np.max(np.abs(alpha_field - alpha)))
    return ClassificationResult(
        is_isotropic=is_isotropic,
        lambda_estimate=lam,
        is_isoparametric=is_isoparametric,
        alpha=alpha,
        b_hat=b_hat,
        max_abs_rho_c=max_c,
        rho2_l_identity_deviation=l_dev,
        lambda_rho2_max=lam * float(np.max(rho2)),
        b_spread=b_spread,
        alpha_spread=alpha_spread,
    )

