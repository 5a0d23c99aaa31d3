"""Batched truncated Taylor polynomials in n variables.

A ``Taylor`` holds the coefficients d^alpha f(u) / alpha! of f(u + h),
|alpha| <= d, of a batch of values in ``c`` of shape (K, ...), K =
C(n+d, d), the monomials in graded ``combinations_with_replacement``
order, so a lower degree's basis is a prefix: the truncated power series
algebra of M. Berz, *Modern Map Methods in Particle Beam Physics*
(1999).  Through ``__array_ufunc__`` and ``__array_function__`` a map
written for float points runs unchanged on the seeds of ``variables``.
A product of two Taylors runs one step per run of coefficients (a table
built on first use per degrees and masks): one coefficient of one factor
times consecutive coefficients of the other, both views, into one
buffer no larger than the output's top degree block.  The table walks
a's coefficients in ascending order, each times a run of b's degree
blocks, or b's in descending order, each times a run of a's, merges the
steps that meet one coefficient of the other factor in turn (a's top
block times b's constant term is one step), and keeps the walk of fewer
steps plus runs.  Multiplication keeps the monomial order (I < I' gives
I + J < I' + J), so among the pairs of one product monomial ascending I
is descending J: either walk sums each monomial's pairs in ascending I,
the order of the double loop over the monomials.  Its first pair is
copied from a step's buffer, and each later one added in place.  The
targets of a step rise along its run, so each run of consecutive
targets is a slice and nothing is gathered: a product holds its output
and one degree block.  (Writing the first pairs with ``out=`` would
save the buffer, but an einsum into a C-ordered output takes a loop
order several times slower.)  A ``Grad`` first operand is walked in
ascending order and unmerged, one coefficient gathered per step, so no
more of the partials than that is formed.  In ``einsum``, a broadcast
coefficient gives the bits of the gathered pairs for every contraction
that keeps an axis, and for a full contraction (as tr D^2) of operands
with the batch axis innermost in memory, the one layout it accepts.
Each coefficient sums the same pairs in the same order as when every
pair is gathered, so the bits do not change (A. Griewank and A.
Walther, *Evaluating Derivatives*, 2nd ed., SIAM 2008, ch. 13).  sqrt,
log, sin, cos and 1/x are f(a) = sum_k f^(k)(a_0) h^k / k!, d products
as h = a - a_0 is nilpotent (R. D. Neidinger, SIAM Review 52, 2010).
As h has no constant term, step k of Horner's rule is formed to degree
d - k + 1 only, and step k of the Neumann series of ``inv`` to degree k: each
coefficient sums the pairs of full degree, in their order, less those
that meet h_0 = 0.  ``grad(k)`` gives the k-th partials as a Taylor,
by one gather scaled in place, and ``partials`` reads the order-k
partials off the constant term of the k-th grad of the degree-k
truncation.  ``Grad(t, k)`` is the k-th partials
unformed, for the first operand of a product: each step gathers and
scales its one coefficient i as ``grad(k)`` does all of them, so the
product has the bits and layout it has with ``t.grad(k)`` and holds one
coefficient of the partials, not all of them (the degree-3 second
partials of x are 3.2 times the degree-5 x at n = 3, and 5.6 times at
n = 5).

``zero`` masks the degree blocks known to be exactly zero (bit k for
block k; 0 knows nothing): ``variables`` flags the seeds' blocks >= 2,
``_compose`` the constant block of h and ``inv`` that of P.  A product's
table skips each walked coefficient, and each block of the other
factor, that is flagged, and fills with 0.0 the blocks no kept pair reaches, which form
the product's mask.  A sum of Taylors, ``np.stack`` and
``np.concatenate`` keep the blocks flagged in all operands, adding a
value clears block 0, ``truncate`` and ``grad(k)`` cut and shift the
mask, and views, copies, negation, ``@``, products with a value and
``np.sum`` keep it.  Code that writes into ``c`` in place must set the
mask to match.  Each skipped pair has an exact zero factor and the kept
ones sum in the same order, so a coefficient can differ only when it is
zero, and then only in its sign.

The logical shape of ``c`` is fixed; its memory layout is not.  With the
batch axis innermost in memory (``batch_inner``), each step of a product
runs one vectorised loop over the points, where a C-ordered ``c`` runs
one loop per point over axes of length 2 to 4 (einsum "Zmij,Zmj->Zmi"
on 1089 points: 13 us against 392 us).  A product allocates its output
in the memory order of its first step's buffer, which numpy lays out as
the operands are, so the layout carries through products, ``inv``,
``grad``, ``copy`` and elementwise arithmetic.  Where the operands'
layouts disagree numpy falls back to C order, so a value array that
meets such a Taylor (A_0^-1 in ``inv``, an identity) is laid out the
same way.  Indexing the batch (``t[rows]``) is numpy's indexing of
``c`` and keeps no layout: a caller that reads the layout sets it with
``batch_inner`` afterwards, as ``invariants`` does.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import combinations_with_replacement
from math import comb, factorial
from operator import and_

import numpy as np

from .errors import InputError

__all__ = ["Taylor", "Grad", "variables", "einsum", "batch_inner", "inv"]


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
def _product_table(n: int, da: int, db: int, za: int = 0, zb: int = 0, grad: bool = False):
    """The product of a degree-da and a degree-db Taylor, to degree d =
    max(da, db), whose degree blocks flagged in the masks za and zb are
    zero, as (steps, fill, zero).  A step (a_rows, b_rows, runs) pairs
    a.c[a_rows] with b.c[b_rows], slices of which one is one coefficient.
    The table walks a's coefficients in ascending order, or b's in
    descending order, outside their zero blocks, each times a run of whole
    nonzero degree blocks of the other factor; consecutive steps that pair
    the next walked coefficient with the same one coefficient merge.  No
    run spans more than the output's top degree block.  Of the two walks
    the one with fewer steps plus runs is kept; a ``Grad`` first operand
    (``grad``) walks a unmerged, one coefficient per step.  The targets of
    a step rise along its run (a monomial order is kept by
    multiplication) and are cut into runs (s, t, opens) of consecutive
    targets, s and t slices.  As I < I' gives I + J < I' + J, the pairs of
    one target in descending J are in ascending I: either walk opens a
    product monomial at its pair of least I and sums its pairs c_I c_J in
    ascending I.  Whether a pair is kept depends on its degrees alone, so
    the targets no pair opens are whole blocks: fill holds their slices,
    to be written 0.0, and zero their mask.  A table with no step would
    leave nothing to lay the output out by; there the masks are dropped."""
    d = max(da, db)
    exps = _basis(n, d)
    deg = exps.sum(1)
    start = np.searchsorted(deg, np.arange(d + 2))
    limit = start[d + 1] - start[d]

    def walk(order, dy, zx, zy, a_walked):
        """(steps, opened) of the walk over the coefficients ``order`` of
        one factor (a if ``a_walked``), masked by zx, each times runs of
        the other's degree blocks 0 .. dy, masked by zy."""
        pairs = []                              # [walked coefficients], run of the other
        for x in order:
            if zx >> deg[x] & 1:
                continue
            top = min(dy, d - deg[x]) + 1       # the other's degree blocks 0 .. top - 1
            lo = 0
            while lo < top:
                if zy >> lo & 1:
                    lo += 1
                    continue
                hi = lo + 1
                while hi < top and not zy >> hi & 1 and start[hi + 1] - start[lo] <= limit:
                    hi += 1
                y = slice(start[lo], start[hi])
                last = pairs[-1] if pairs else ([], None)
                if (not grad and y.stop - y.start == 1 and last[1] == y
                        and abs(x - last[0][-1]) == 1 and len(last[0]) < limit):
                    last[0].append(x)
                else:
                    pairs.append(([x], y))
                lo = hi
        opened = np.zeros(len(exps), dtype=bool)
        steps = []
        for xs, y in pairs:
            x = slice(min(xs), max(xs) + 1)
            a_rows, b_rows = (x, y) if a_walked else (y, x)
            t = _index(n, d, exps[a_rows] + exps[b_rows])
            new = ~opened[t]
            opened[t] = True
            cuts = [0, *np.flatnonzero((np.diff(t) != 1) | (np.diff(new) != 0)) + 1, len(t)]
            steps.append((a_rows, b_rows, [(slice(a, b), slice(t[a], t[b - 1] + 1), bool(new[a]))
                                           for a, b in zip(cuts, cuts[1:])]))
        return steps, opened

    walks = [walk(range(comb(n + da, da)), db, za, zb, True)]
    if not grad:
        walks.append(walk(range(comb(n + db, db) - 1, -1, -1), da, zb, za, False))
    steps, opened = min(walks, key=lambda w: len(w[0]) + sum(len(runs) for *_, runs in w[0]))
    if not steps:
        return _product_table(n, da, db, grad=grad)
    empty = [k for k in range(d + 1) if not opened[start[k]]]
    return steps, [slice(start[k], start[k + 1]) for k in empty], sum(1 << k for k in empty)


@lru_cache(maxsize=None)
def _grad_table(n: int, d: int, k: int = 1):
    """(source, factors) of k grads: source (K(n, d-k), n, ..., n), the
    last grad's axis first, holds the position of beta + e_i1 + ... +
    e_ik in ``_basis(n, d)``, and factors the scalings of each grad in
    turn, d_i h^(beta+e_i) = (beta_i + 1) h^beta."""
    exps = _basis(n, d - 1)
    shifted = (exps[:, None, :] + np.eye(n, dtype=int)).reshape(-1, n)
    source, factor = _index(n, d, shifted).reshape(-1, n), exps + 1.0
    if k == 1:
        return source, [factor]
    inner, factors = _grad_table(n, d, k - 1)
    outer, last = _grad_table(n, d - k + 1)
    last = last[0].reshape(last[0].shape + (1,) * (k - 1))
    return inner[outer], [f[outer] for f in factors] + [last]


class Taylor:
    """Polynomials of total degree ``d`` in ``n`` variables, coefficients
    on the first axis of ``c`` and the batch of values on the rest;
    ``zero`` flags the degree blocks known to be zero."""

    __slots__ = ("c", "n", "d", "zero")

    def __init__(self, c: np.ndarray, n: int, d: int, zero: int = 0):
        self.c, self.n, self.d, self.zero = c, n, d, zero

    value = property(lambda self: self.c[0])
    shape = property(lambda self: self.c.shape[1:])
    ndim = property(lambda self: self.c.ndim - 1)

    def _new(self, c, keep: int = -1) -> "Taylor":
        """A Taylor of coefficients c whose zero blocks are self's in ``keep``."""
        return Taylor(c, self.n, self.d, self.zero & keep)

    def _aligned(self, ndim: int) -> np.ndarray:
        return self.c.reshape(self.c.shape[:1] + (1,) * (ndim - self.ndim) + self.shape)

    def __getitem__(self, key) -> "Taylor":
        """Indexing of the batch, as numpy indexes ``c`` past its first axis."""
        return self._new(self.c[(slice(None),) + (key if isinstance(key, tuple) else (key,))])

    def swapaxes(self, a: int, b: int) -> "Taylor":
        """Two batch axes swapped, each counted from the end (a, b < 0)."""
        return self._new(np.swapaxes(self.c, a, b))

    def truncate(self, d: int) -> "Taylor":
        """The terms of degree <= d, a view of ``c``."""
        return Taylor(self.c[:comb(self.n + d, d)], self.n, d, self.zero & ((2 << d) - 1))

    def copy(self) -> "Taylor":
        """A copy in the same memory layout: a truncation that outlives its
        parent, copied, does not keep the parent's buffer alive."""
        return self._new(self.c.copy(order="K"))

    def coefficients(self, rows: slice) -> np.ndarray:
        """The coefficients ``rows``, a view; ``Grad`` answers the same call."""
        return self.c[rows]

    def grad(self, k: int = 1) -> "Taylor":
        """The k-th partials, degree d-k, their k axes after the first batch
        axis, the last grad's first (``Grad``, gathered whole)."""
        partials = Grad(self, k)
        return Taylor(partials.coefficients(slice(None)), self.n, partials.d, partials.zero)

    def partials(self) -> list:
        """[f, df, ddf, ...] at the expansion points, order k of shape
        (m, n, ..., n, ...) with k axes of length n."""
        return [self.value] + [Grad(self.truncate(k), k).coefficients(slice(1))[0]
                               for k in range(1, self.d + 1)]

    def _shaped(self, other) -> tuple:
        if isinstance(other, Taylor):
            ndim = max(self.ndim, other.ndim)
            return self._aligned(ndim), other._aligned(ndim)
        other = np.asarray(other, dtype=float)
        return self._aligned(max(self.ndim, other.ndim)), other

    def __add__(self, other) -> "Taylor":
        a, b = self._shaped(other)
        if isinstance(other, Taylor):
            return self._new(a + b, other.zero)
        # a + 0.0, not a copy: a sum turns -0.0 into 0.0, and so must this
        c = np.add(a, 0.0, out=np.empty_like(a, shape=np.broadcast_shapes(a.shape, b.shape)))
        c[0] += b
        return self._new(c, ~1)

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
            return self._new(a - b, other.zero)
        return self + (-other)

    def __rsub__(self, other) -> "Taylor":   # -self + other, in one buffer
        a, b = self._shaped(other)
        c = np.negative(a, out=np.empty_like(a, shape=np.broadcast_shapes(a.shape, b.shape)))
        np.add(c, 0.0, out=c)
        c[0] += b
        return self._new(c, ~1)

    def __truediv__(self, other) -> "Taylor":
        return self * (other.reciprocal() if isinstance(other, Taylor) else np.divide(1.0, other))

    def __rtruediv__(self, other) -> "Taylor":
        return self.reciprocal() * other

    def __pow__(self, k: int) -> "Taylor":
        if not (isinstance(k, (int, np.integer)) and k >= 1):
            raise InputError(f"a Taylor power takes a positive integer exponent, got {k!r}")
        return reduce(Taylor.__mul__, [self] * k)

    def __matmul__(self, M) -> "Taylor":
        return self._new(self.c @ np.asarray(M, dtype=float))

    def _compose(self, coeffs) -> "Taylor":
        """f(self) from coeffs[k] = f^(k)(a_0) / k!, k = 0..d, by Horner's
        rule; h has no constant term, so step k is read to degree d - k + 1."""
        h = self - self.value
        h.zero |= 1
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
        if func is np.sum:
            return self._new(func(args[0].c, axis=axis))
        return self._new(func([p.c for p in args[0]], axis=axis),
                         reduce(and_, (p.zero for p in args[0])))


class Grad:
    """The k-th partials of the Taylor ``t``, of degree t.d - k, as the
    first operand of a product, which reads them one coefficient per
    step: ``einsum(spec, Grad(t, k), b)`` equals ``einsum(spec,
    t.grad(k), b)`` in its bits and layout, and no array of the size of
    ``t.grad(k)`` is made.  It holds ``t`` and nothing that refers back
    to itself, so ``t`` is freed with its last other reference."""

    __slots__ = ("t", "k", "n", "d", "zero")

    def __init__(self, t: Taylor, k: int = 1):
        self.t, self.k, self.n, self.d, self.zero = t, k, t.n, t.d - k, t.zero >> k

    def coefficients(self, rows: slice) -> np.ndarray:
        """The coefficients ``rows`` of ``t.grad(k)``: one gather of their
        rows of ``_grad_table``, laid out in memory as ``t.c`` is, then each
        grad's scaling in place, in turn, so the bits are those of k calls
        of ``grad()``."""
        source, factors = _grad_table(self.n, self.t.d, self.k)
        c = self.t.c[source[rows]]
        for factor in factors:
            factor = factor[rows]
            c *= factor.reshape(factor.shape + (1,) * self.t.ndim)
        return c.transpose(0, self.k + 1, *range(1, self.k + 1), *range(self.k + 2, c.ndim))


def variables(U: np.ndarray, d: int) -> Taylor:
    """The coordinates u + h as Taylors of degree d >= 1 about the points U (m, n)."""
    if d < 1:
        raise ValueError(f"coordinate seeds need degree >= 1, not {d}")
    U = np.atleast_2d(np.asarray(U, dtype=float))
    m, n = U.shape
    c = np.zeros((comb(n + d, d), m, n))
    c[0] = U
    c[1 + np.arange(n), :, np.arange(n)] = 1.0
    return Taylor(c, n, d, (2 << d) - 4)


def _product(op, a, b, subtract_from=None) -> Taylor:
    """op(a, b) for a bilinear ``op`` of coefficient arrays, a or b or both
    Taylor, or a a ``Grad`` and b a Taylor.  Two Taylors of unequal degree
    multiply to the higher one, exact only where the other factor has no
    constant term.  The output is laid out as ``op`` lays out the first
    step's buffer: its batch axis is innermost in memory when the
    operands' is.  With ``subtract_from``, a Taylor of the output's shape
    and degree, each pair is subtracted from it in place, and it is
    returned."""
    if not isinstance(b, Taylor):
        return a._new(op(a.c, np.asarray(b)[None]))
    if not isinstance(a, (Taylor, Grad)):
        return b._new(op(np.asarray(a)[None], b.c))
    d = max(a.d, b.d)
    out = None if subtract_from is None else subtract_from.c
    bc = b.c
    steps, fill, zero = _product_table(a.n, a.d, b.d, a.zero, b.zero, isinstance(a, Grad))
    for a_rows, b_rows, runs in steps:
        part = op(a.coefficients(a_rows), bc[b_rows])
        if out is None:             # part's axes, outermost first in memory
            axes = [0] + sorted(range(1, part.ndim), key=lambda k: -part.strides[k])
            out = np.empty((comb(a.n + d, d),) + tuple(part.shape[k] for k in axes[1:]))
            out = out.transpose(sorted(range(part.ndim), key=axes.__getitem__))
        for s, t, opens in runs:
            target = out[t]
            if subtract_from is not None:
                np.subtract(target, part[s], out=target)
            elif opens:             # the first pair of each target
                target[...] = part[s]
            else:
                np.add(target, part[s], out=target)
        del part                    # before the next step's buffer
    if subtract_from is not None:
        subtract_from.zero &= zero
        return subtract_from
    for t in fill:
        out[t] = 0.0
    return Taylor(out, a.n, d, zero)


def _batch_innermost(c: np.ndarray) -> bool:
    """Whether the batch axis 1 of ``c`` is innermost in memory, or one point long."""
    return c.shape[1] == 1 or c.strides[1] == min(s for s, k in zip(c.strides, c.shape) if k > 1)


def einsum(spec: str, a, b, subtract_from=None) -> Taylor:
    """``np.einsum(spec, a, b)``; ``spec`` names its output and no axis Z.
    A full contraction (one output axis) of more than one point raises
    InputError unless each Taylor operand's batch axis is innermost in memory,
    where its sums keep the gathered pairs' order.  With ``subtract_from`` the
    product is subtracted from that Taylor pair by pair and never built."""
    (left, right), keep = spec.split("->")[0].split(","), spec.split("->")[1]
    full = f"Z{left},Z{right}->Z{keep}"
    if len(keep) == 1 and not all(_batch_innermost(t.c) for t in (a, b) if isinstance(t, Taylor)):
        raise InputError("a full contraction needs its Taylor operands with the batch axis "
                         "innermost in memory (taylor.batch_inner)")
    return _product(lambda A, B: np.einsum(full, A, B), a, b, subtract_from)


def batch_inner(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """A copy of ``a`` with the batch ``axis`` innermost in memory, its
    shape unchanged: each product step then runs one loop over the batch."""
    axes = [k for k in range(a.ndim) if k != axis] + [axis]
    return a.transpose(axes).copy().transpose(np.argsort(axes))


def inv(A) -> Taylor:
    """Inverse of a batch of Taylor matrices (m, k, k):
    A^-1 = A_0^-1 sum_j (-N A_0^-1)^j with N = A - A_0 nilpotent.  ``A``
    is a Taylor, or a list holding one, which is emptied: where the list
    held its only reference, A is freed once A_0^-1 and P are formed, so
    that it does not live through the series (``invariants`` hands it
    the degree-3 II so)."""
    if isinstance(A, list):
        A = A.pop()
    A0inv = batch_inner(np.linalg.inv(A.value))
    P = einsum("mij,mjk->mik", A, A0inv)     # P = -N A_0^-1, formed in place
    del A
    P.c[0] = 0.0
    P.zero |= 1
    np.negative(P.c, out=P.c)
    eye = np.eye(P.shape[-1])
    S = batch_inner(np.broadcast_to(eye, P.shape))
    for j in range(1, P.d + 1):       # P has no constant term: S_j to degree j
        S = einsum("mij,mjk->mik", P.truncate(j), S)
        S.c[0] += eye
        S.zero &= ~1
    del P
    return einsum("mij,mjk->mik", A0inv, S)
