"""The Taylor product kernel and the partials read off the coefficients.

A product of two Taylors sums the coefficient pairs of each product
monomial one rank group at a time, straight into the output.  Its
coefficients must equal those of a naive double loop over the monomials
bit for bit, because that loop adds each monomial's pairs in the same
order; and it must not hold all C(2n+d, d) pairs at once.  Horner's rule
and the Neumann series of ``inv``, each step formed only to the degree
that is read, must equal their full-degree loops bit for bit.
"""

import tracemalloc
from itertools import product
from math import comb

import numpy as np
import pytest

from lagkit import taylor
from lagkit.taylor import Taylor, _basis, _index, _product_table

CASES = [(n, d) for n in range(1, 6) for d in range(1, 6)]
OPS = {
    "multiply": (lambda a, b: a * b, np.multiply, (3, 2, 2)),
    "matmul": (taylor.matmul, np.matmul, (3, 2, 2)),
    "einsum": (lambda a, b: taylor.einsum("mij,mjk->mik", a, b),
               lambda A, B: np.einsum("Zmij,Zmjk->Zmik", A, B), (3, 2, 2)),
}


def naive_product(op, a: np.ndarray, b: np.ndarray, n: int, d: int) -> np.ndarray:
    """Coefficients of the truncated product: for each monomial i, then
    each monomial j, add op(a_i, b_j) to the monomial of i + j."""
    exps = _basis(n, d)
    out = [None] * len(exps)
    for i, j in product(range(len(exps)), repeat=2):
        if exps[i].sum() + exps[j].sum() > d:
            continue
        k = int(_index(n, d, (exps[i] + exps[j])[None])[0])
        term = op(a[i:i + 1], b[j:j + 1])[0]
        out[k] = term if out[k] is None else out[k] + term
    return np.stack(out)


@pytest.mark.parametrize("n,d", CASES)
def test_product_table_sums_in_double_loop_order(n, d):
    # Rank group r holds the r-th pair (i, j), in the order of the double
    # loop, of every monomial that has one; group 0 holds each monomial once.
    # Each group is cut into blocks of one target degree, in rank order.
    exps = _basis(n, d)
    pairs = {}
    for i, j in product(range(len(exps)), repeat=2):
        if exps[i].sum() + exps[j].sum() <= d:
            k = int(_index(n, d, (exps[i] + exps[j])[None])[0])
            pairs.setdefault(k, []).append((i, j))
    first, rest = _product_table(n, d, d)
    assert [t for _, _, t in first] == [slice(comb(n + k - 1, k - 1) if k else 0, comb(n + k, k))
                                        for k in range(d + 1)]
    assert [pairs[k][0] for k in range(len(exps))] == [
        p for I, J, _ in first for p in zip(I, J)]
    seen = {k: 1 for k in pairs}
    for I, J, t in rest:
        targets = np.arange(len(exps))[t]
        assert np.all(np.diff(targets) > 0) and len(set(exps[targets].sum(1))) == 1
        for k, pair in zip(targets, zip(I, J)):
            assert pairs[k][seen[k]] == pair
            seen[k] += 1
    assert seen == {k: len(p) for k, p in pairs.items()}


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("n,d", CASES)
def test_products_equal_naive_double_loop(name, n, d):
    kernel, op, shape = OPS[name]
    rng = np.random.default_rng(1000 * n + d)
    K = len(_basis(n, d))
    a = rng.standard_normal((K,) + shape)
    b = rng.standard_normal((K,) + shape)
    got = kernel(Taylor(a, n, d), Taylor(b, n, d)).c
    assert np.array_equal(got, naive_product(op, a, b, n, d))


def gathered_product(op, a: Taylor, b: Taylor) -> np.ndarray:
    """The product with every pair gathered, group 0 at once, then each
    block of rank >= 1 scattered into its targets with ``+=``."""
    first, rest = _product_table(a.n, a.d, b.d)
    I = np.concatenate([I for I, _, _ in first])
    J = np.concatenate([J for _, J, _ in first])
    out = op(a.c[I], b.c[J])
    for I, J, targets in rest:
        out[targets] += op(a.c[I], b.c[J])
    return out


@pytest.mark.parametrize("layout", ["contiguous", "swapped"])
@pytest.mark.parametrize("name", ["multiply", "matmul"])
@pytest.mark.parametrize("n", range(2, 6))
def test_view_path_equals_gathered_product(n, name, layout):
    # multiply and matmul read group 0's pairs (0, j) as views of a.c[:1]
    # and b.c; the bits must be those of the gathered pairs, for factors of
    # equal and unequal degree and for operands that are strided views.
    kernel, op, shape = OPS[name]
    rng = np.random.default_rng(5000 * n + len(layout))
    for da, db in product(range(6), repeat=2):
        if layout == "swapped":   # (K, 3, 2, 2) with its first batch axis innermost
            a, b = (np.moveaxis(rng.standard_normal((len(_basis(n, k)), 2, 2, 3)), -1, 1)
                    for k in (da, db))
        else:
            a, b = (rng.standard_normal((len(_basis(n, k)),) + shape) for k in (da, db))
        a, b = Taylor(a, n, da), Taylor(b, n, db)
        got = kernel(a, b)
        assert got.d == max(da, db)
        assert np.array_equal(got.c, gathered_product(op, a, b)), (da, db)


@pytest.mark.parametrize("name", sorted(OPS))
def test_products_and_truncated_copies_own_their_memory(name):
    # A product's output, and a truncation copied with ``copy``, share no
    # memory with an operand, so neither keeps a freed operand alive.
    kernel, _, shape = OPS[name]
    rng = np.random.default_rng(6)
    for n, (da, db) in product((2, 3), [(1, 3), (3, 1), (2, 2), (3, 3)]):
        a, b = (Taylor(rng.standard_normal((len(_basis(n, k)),) + shape), n, k)
                for k in (da, db))
        out = kernel(a, b)
        assert not np.shares_memory(out.c, a.c) and not np.shares_memory(out.c, b.c)
        low = out.truncate(1).copy()
        assert not np.shares_memory(low.c, out.c)
        assert np.array_equal(low.c, out.c[:n + 1]) and low.d == 1


@pytest.mark.parametrize("n,d", CASES)
def test_partials_equal_grad_chain(n, d):
    # alpha! c_alpha equals the grad() chain's product of the factors
    # (beta_i + 1) bit for bit while alpha! has at most one odd factor
    # above 1, which holds through order 3 (and 4).
    rng = np.random.default_rng(2000 * n + d)
    t = Taylor(rng.standard_normal((len(_basis(n, d)), 4, 3)), n, d)
    partials = t.partials()
    assert len(partials) == d + 1
    chain = t
    for k in range(1, min(d, 3) + 1):
        chain = chain.grad()
        assert partials[k].shape == (4,) + (n,) * k + (3,)
        assert np.array_equal(partials[k], chain.value)


def test_product_memory_stays_near_its_output():
    # n = 3, d = 5 over 125 points: 56 output coefficients from 462 pairs.
    # Gathering every pair of both factors, as a kernel that sums all pairs
    # at the end must, peaks near 25 outputs; rank groups near 5.
    rng = np.random.default_rng(3)
    a = Taylor(rng.standard_normal((56, 125, 3, 3)), 3, 5)
    b = Taylor(rng.standard_normal((56, 125, 3, 3)), 3, 5)
    taylor.matmul(a, b)      # builds the (3, 5) table outside the trace
    tracemalloc.start()
    try:
        out = taylor.matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * out.c.nbytes


# Full-degree references: Horner's rule and the Neumann series as they ran
# before each step was cut to the degree that is read.

def full_compose(self, coeffs):
    h = self - self.value
    out = h * coeffs[self.d]
    for k in range(self.d - 1, 0, -1):
        out = (out + coeffs[k]) * h
    return out + coeffs[0]


def full_inv(A):
    A0inv = np.linalg.inv(A.value)
    P, S = -taylor.matmul(A - A.value, A0inv), np.eye(A.shape[-1])
    for _ in range(A.d):
        S = taylor.matmul(P, S) + np.eye(A.shape[-1])
    return taylor.matmul(A0inv, S)


GRADED = [(n, d) for n in range(1, 5) for d in range(1, 6)]


@pytest.mark.parametrize("name", ["reciprocal", "sqrt", "log", "sin", "cos"])
@pytest.mark.parametrize("n,d", GRADED)
def test_graded_horner_equals_full_degree(name, n, d, monkeypatch):
    # Step k of Horner's rule is read to degree d - k + 1 only; the terms it
    # drops meet the constant term of h = a - a_0, which is 0.
    rng = np.random.default_rng(3000 * n + d)
    c = rng.standard_normal((len(_basis(n, d)), 4, 3))
    c[0] = rng.uniform(0.5, 2.0, (4, 3))
    t = Taylor(c, n, d)
    got = getattr(t, name)()
    monkeypatch.setattr(Taylor, "_compose", full_compose)
    want = getattr(t, name)()
    assert got.d == want.d == d
    assert np.array_equal(got.c, want.c)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n,d", GRADED)
def test_graded_neumann_inverse_equals_full_degree(k, n, d):
    rng = np.random.default_rng(4000 * n + 10 * d + k)
    c = rng.standard_normal((len(_basis(n, d)), 5, k, k))
    c[0] += 3.0 * np.eye(k)
    A = Taylor(c, n, d)
    got, want = taylor.inv(A), full_inv(A)
    assert got.d == want.d == d
    assert np.array_equal(got.c, want.c)
