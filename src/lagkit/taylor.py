"""Batched truncated Taylor polynomials in n variables.

A ``Taylor`` holds the coefficients d^alpha f(u) / alpha! of f(u + h),
|alpha| <= d, of a batch of values in ``c`` of shape (K, ...), K =
C(n+d, d), the monomials in graded ``combinations_with_replacement``
order, so a lower degree's basis is a prefix: the truncated power series
algebra of M. Berz, *Modern Map Methods in Particle Beam Physics*
(1999).  Through ``__array_ufunc__`` and ``__array_function__`` a map
written for float points runs unchanged on the seeds of ``variables``.
A product of two Taylors sums the coefficient pairs of each product
monomial one rank group at a time, straight into its K outputs, each
group cut where its monomials change degree (the blocks of a table
built on first use per (n, da, db)), so it holds no more than one
degree's pairs of a group.  ``multiply`` and ``matmul`` read group 0's
pairs (0, j) as views, a.c[:1] against b.c (``einsum`` gathers them: a
broadcast operand reorders its sums), and a later block is added to
its targets in its own buffer.  Each coefficient sums the same pairs in
the same order as when every pair is gathered, so the bits do not
change (A. Griewank and A. Walther, *Evaluating Derivatives*, 2nd ed.,
SIAM 2008, ch. 13).  sqrt, log, sin, cos and 1/x are f(a) = sum_k
f^(k)(a_0) h^k / k!, d products as h = a - a_0 is nilpotent (R. D.
Neidinger, SIAM Review 52, 2010).  As h has no constant term, step k of
Horner's rule is formed to degree d - k + 1 only, and step k of the
Neumann series of ``inv`` to degree k: each coefficient sums the pairs of
full degree, in their order, less those that meet h_0 = 0.  ``partials``
reads the order-k partials off the coefficients as alpha! c_alpha.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial

import numpy as np

__all__ = ["Taylor", "variables", "einsum", "matmul", "inv"]


@lru_cache(maxsize=None)
def _basis(n: int, d: int) -> np.ndarray:
    """Exponents (K, n) of the monomials of degree <= d, in graded order."""
    return np.array([np.bincount(alpha, minlength=n) for k in range(d + 1)
                     for alpha in combinations_with_replacement(range(n), k)]).reshape(-1, n)


def _index(n: int, d: int, exps: np.ndarray) -> np.ndarray:
    """Positions in ``_basis(n, d)`` of the exponent rows ``exps``."""
    weights = (d + 1) ** np.arange(n)
    codes = _basis(n, d) @ weights
    order = np.argsort(codes)
    return order[np.searchsorted(codes, exps @ weights, sorter=order)]


@lru_cache(maxsize=None)
def _product_table(n: int, da: int, db: int):
    """The pairs c_I c_J, |I| <= da, |J| <= db, of degree <= d = max(da,
    db), as blocks (I, J, targets) in two lists, ``first`` and ``rest``.
    Rank group r holds the r-th pair of every product monomial that has
    one, so group 0 (``first``) holds each monomial once, in order, and
    the groups of rank >= 1 (``rest``, in rank order) add each monomial's
    pairs in an order that does not depend on the batch (a BLAS
    product's does).  Each group is cut where its targets change degree,
    so no block gathers more pairs than there are monomials of one
    degree; targets that run without a gap, as in every block of group
    0, are a slice.  A monomial's pairs are those, in the same order, of
    every table of higher degree, less the pairs past da or db."""
    d = max(da, db)
    exps = _basis(n, d)
    deg = exps.sum(1)
    I, J = np.nonzero((deg[:, None] + deg <= d) & (deg[:, None] <= da) & (deg <= db))
    target = _index(n, d, exps[I] + exps[J])
    order = np.argsort(target, kind="stable")
    I, J, target = I[order], J[order], target[order]
    rank = np.arange(len(target)) - np.searchsorted(target, target)
    order = np.lexsort((target, rank))
    I, J, target, rank = I[order], J[order], target[order], rank[order]
    cuts = np.flatnonzero(np.diff(rank) | np.diff(deg[target])) + 1
    blocks = [(I[a:b], J[a:b], _as_slice(target[a:b]))
              for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(target)])]
    return blocks[:d + 1], blocks[d + 1:]


def _as_slice(t: np.ndarray):
    """``t`` as a slice where it is a run of consecutive indices, so that
    indexing with it is a view and not a gather."""
    return slice(t[0], t[-1] + 1) if t[-1] - t[0] == len(t) - 1 else t


@lru_cache(maxsize=None)
def _partial_table(n: int, k: int):
    """(index, factor), each (n,) * k: the position of e_i1 + ... + e_ik
    in ``_basis`` and its alpha!, so d_i1 ... d_ik f = alpha! c_alpha."""
    exps = np.eye(n, dtype=int)[np.indices((n,) * k).reshape(k, -1).T].sum(1)
    factor = np.prod([[factorial(a) for a in alpha] for alpha in exps], axis=1)
    return _index(n, k, exps).reshape((n,) * k), factor.reshape((n,) * k).astype(float)


@lru_cache(maxsize=None)
def _grad_table(n: int, d: int):
    """(source, factor), (K(n, d-1), n): d_i h^(beta+e_i) = (beta_i + 1) h^beta."""
    exps = _basis(n, d - 1)
    shifted = (exps[:, None, :] + np.eye(n, dtype=int)).reshape(-1, n)
    return _index(n, d, shifted).reshape(-1, n), exps + 1.0


class Taylor:
    """Polynomials of total degree ``d`` in ``n`` variables, coefficients
    on the first axis of ``c`` and the batch of values on the rest."""

    __slots__ = ("c", "n", "d")

    def __init__(self, c: np.ndarray, n: int, d: int):
        self.c, self.n, self.d = c, n, d

    value = property(lambda self: self.c[0])
    shape = property(lambda self: self.c.shape[1:])
    ndim = property(lambda self: self.c.ndim - 1)

    def _new(self, c) -> "Taylor":
        return Taylor(c, self.n, self.d)

    def _aligned(self, ndim: int) -> np.ndarray:
        return self.c.reshape(self.c.shape[:1] + (1,) * (ndim - self.ndim) + self.shape)

    def __getitem__(self, key) -> "Taylor":
        """Indexing of the batch; a 1-D integer or boolean array is ``take``."""
        if isinstance(key, np.ndarray) and key.ndim == 1:
            return self.take(np.flatnonzero(key) if key.dtype == bool else key)
        return self._new(self.c[(slice(None),) + (key if isinstance(key, tuple) else (key,))])

    def take(self, rows) -> "Taylor":
        """The points ``rows`` of the first batch axis, laid out in memory as
        ``c`` is, so that a later sum over a strided axis runs in the order it
        would on the jet of those points alone."""
        perm = np.argsort([-s for s in self.c.strides], kind="stable")
        c = np.take(self.c.transpose(perm), rows, axis=int(np.flatnonzero(perm == 1)[0]))
        return self._new(c.transpose(np.argsort(perm)))

    def swapaxes(self, a: int, b: int) -> "Taylor":
        """Two batch axes swapped, each counted from the end (a, b < 0)."""
        return self._new(np.swapaxes(self.c, a, b))

    def truncate(self, d: int) -> "Taylor":
        """The terms of degree <= d, a view of ``c``."""
        return Taylor(self.c[:comb(self.n + d, d)], self.n, d)

    def copy(self) -> "Taylor":
        """A copy in the same memory layout: a truncation that outlives its
        parent, copied, does not keep the parent's buffer alive."""
        return self._new(self.c.copy(order="K"))

    def grad(self) -> "Taylor":
        """First partials, degree d-1, the partial's axis after the batch axis."""
        source, factor = _grad_table(self.n, self.d)
        c = self.c[source] * factor.reshape(factor.shape + (1,) * self.ndim)
        return Taylor(np.moveaxis(c, 1, 2), self.n, self.d - 1)

    def partials(self) -> list:
        """[f, df, ddf, ...] at the expansion points, order k of shape
        (m, n, ..., n, ...) with k axes of length n."""
        out = [self.value]
        for k in range(1, self.d + 1):
            index, factor = _partial_table(self.n, k)
            c = self.c[index] * factor.reshape(factor.shape + (1,) * self.ndim)
            out.append(np.moveaxis(c, tuple(range(k)), tuple(range(1, k + 1))))
        return out

    def _shaped(self, other) -> tuple:
        if isinstance(other, Taylor):
            ndim = max(self.ndim, other.ndim)
            return self._aligned(ndim), other._aligned(ndim)
        other = np.asarray(other, dtype=float)
        return self._aligned(max(self.ndim, other.ndim)), other

    def __add__(self, other) -> "Taylor":
        a, b = self._shaped(other)
        if isinstance(other, Taylor):
            return self._new(a + b)
        c = a + np.zeros(b.shape)
        c[0] += b
        return self._new(c)

    def __mul__(self, other) -> "Taylor":
        a, b = self._shaped(other)
        b = other._new(b) if isinstance(other, Taylor) else b
        return _product(np.multiply, self._new(a), b)

    __radd__, __rmul__ = __add__, __mul__

    def __neg__(self) -> "Taylor":
        return self._new(-self.c)

    def __sub__(self, other) -> "Taylor":   # a - b: a + (-b) in IEEE, less one copy
        if isinstance(other, Taylor):
            a, b = self._shaped(other)
            return self._new(a - b)
        return self + (-other)

    def __rsub__(self, other) -> "Taylor":
        return -self + other

    def __truediv__(self, other) -> "Taylor":
        return self * (other.reciprocal() if isinstance(other, Taylor) else np.divide(1.0, other))

    def __rtruediv__(self, other) -> "Taylor":
        return self.reciprocal() * other

    def __pow__(self, k: int) -> "Taylor":   # k a positive integer
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __matmul__(self, M) -> "Taylor":
        return self._new(self.c @ np.asarray(M, dtype=float))

    def _compose(self, coeffs) -> "Taylor":
        """f(self) from coeffs[k] = f^(k)(a_0) / k!, k = 0..d, by Horner's
        rule; h has no constant term, so step k is read to degree d - k + 1."""
        h = self - self.value
        out = h.truncate(1) * coeffs[self.d]
        for k in range(self.d - 1, 0, -1):
            out = (out + coeffs[k]) * h.truncate(self.d - k + 1)
        return out + coeffs[0]

    def reciprocal(self) -> "Taylor":
        return self._compose([(-1.0) ** k / self.value ** (k + 1) for k in range(self.d + 1)])

    def sqrt(self) -> "Taylor":
        a = self.value
        binom = np.cumprod([1.0] + [(1.5 - k) / k for k in range(1, self.d + 1)])
        return self._compose([binom[k] * np.sqrt(a) / a**k for k in range(self.d + 1)])

    def log(self) -> "Taylor":
        a = self.value
        return self._compose([np.log(a)] + [(-1.0) ** (k + 1) / (k * a**k)
                                            for k in range(1, self.d + 1)])

    def sin(self, phase: float = 0.0) -> "Taylor":
        return self._compose([np.sin(self.value + phase + k * np.pi / 2) / factorial(k)
                              for k in range(self.d + 1)])

    def cos(self) -> "Taylor":
        return self.sin(np.pi / 2)

    _UFUNCS = {np.add: (__add__, __radd__), np.subtract: (__sub__, __rsub__),
               np.multiply: (__mul__, __rmul__), np.true_divide: (__truediv__, __rtruediv__),
               np.negative: (__neg__,), np.sqrt: (sqrt,), np.log: (log,), np.sin: (sin,),
               np.cos: (cos,)}

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs or ufunc not in Taylor._UFUNCS:
            return NotImplemented
        forward = Taylor._UFUNCS[ufunc]
        if len(inputs) == 1 or isinstance(inputs[0], Taylor):
            return forward[0](*inputs)
        return forward[1](inputs[1], inputs[0])

    def __array_function__(self, func, types, args, kwargs):   # over one axis
        axis = kwargs.get("axis", args[1] if len(args) > 1 else None)
        if not isinstance(axis, int) or func not in (np.sum, np.stack, np.concatenate):
            return NotImplemented
        axis = axis + 1 if axis >= 0 else axis
        parts = args[0].c if func is np.sum else [p.c for p in args[0]]
        return self._new(func(parts, axis=axis))


def variables(U: np.ndarray, d: int) -> Taylor:
    """The coordinates u + h as Taylors of degree d >= 1 about the points U (m, n)."""
    if d < 1:
        raise ValueError(f"coordinate seeds need degree >= 1, not {d}")
    U = np.atleast_2d(np.asarray(U, dtype=float))
    m, n = U.shape
    c = np.zeros((comb(n + d, d), m, n))
    c[0] = U
    c[1 + np.arange(n), :, np.arange(n)] = 1.0
    return Taylor(c, n, d)


def _product(op, a, b) -> Taylor:
    """op(a, b) for a bilinear ``op`` of coefficient arrays, a or b or both
    Taylor.  Two Taylors of unequal degree multiply to the higher one,
    exact only where the other factor has no constant term."""
    if not isinstance(b, Taylor):
        return a._new(op(a.c, np.asarray(b)[None]))
    if not isinstance(a, Taylor):
        return b._new(op(np.asarray(a)[None], b.c))
    d = max(a.d, b.d)
    first, rest = _product_table(a.n, a.d, b.d)
    batch = op(a.c[:0], b.c[:0]).shape[1:]      # op on no coefficients: the shape only
    out = np.empty((comb(a.n + d, d),) + batch)
    if op in (np.multiply, np.matmul):
        # Group 0 opens with the pairs (0, j), j < len(b.c): a.c[:1]
        # broadcasts over them, without a gather.
        op(a.c[:1], b.c, out=out[:len(b.c)])
        first = [block for block in first if block[2].start >= len(b.c)]
    for I, J, t in first:
        out[t] = op(a.c[I], b.c[J])
    for I, J, t in rest:
        part = op(a.c[I], b.c[J])
        np.add(out[t], part, out=part)
        out[t] = part
        del part                    # before the next block's gathers
    return Taylor(out, a.n, d)


def einsum(spec: str, a, b) -> Taylor:
    """``np.einsum(spec, a, b)``; ``spec`` names its output and no axis Z."""
    (left, right), out = spec.split("->")[0].split(","), spec.split("->")[1]
    return _product(lambda A, B: np.einsum(f"Z{left},Z{right}->Z{out}", A, B), a, b)


def matmul(a, b) -> Taylor:
    """a @ b (batched ``np.matmul`` beats einsum severalfold on small matrices)."""
    return _product(np.matmul, a, b)


def inv(A: Taylor) -> Taylor:
    """Inverse of a batch of Taylor matrices (..., k, k):
    A^-1 = A_0^-1 sum_j (-N A_0^-1)^j with N = A - A_0 nilpotent."""
    A0inv = np.linalg.inv(A.value)
    P, S = -matmul(A - A.value, A0inv), np.eye(A.shape[-1])
    for j in range(1, A.d + 1):       # P has no constant term: S_j to degree j
        S = matmul(P.truncate(j), S) + np.eye(A.shape[-1])
    return matmul(A0inv, S)
