"""The Taylor product kernel and the partials read off the coefficients.

A product of two Taylors runs one step per coefficient i of a and run of
degree blocks of b, a product of views into one buffer whose slices are
copied or added in place to their targets.  Its coefficients must equal
those of a naive double loop over the monomials, and of every pair
gathered, bit for bit, because both add each monomial's pairs in the
same order, ascending I; and it must hold no more than its output and
one degree block.  Operands whose batch axis is innermost in memory,
as ``invariants`` lays out its Taylor fields, must give a product, an
inverse, partials and copies laid out the same way.  A product whose
first operand is the partials of x, read one coefficient per step
(``taylor.Grad``), must equal the product of the formed partials in its
bits and layout without holding them.  Horner's rule and
the Neumann series of ``inv``, each step formed only to the degree that
is read, must equal their full-degree loops bit for bit.
"""

import tracemalloc
from functools import lru_cache
from itertools import product
from math import comb

import numpy as np
import pytest

from lagkit import taylor
from lagkit.construction import (
    ConstructionConstants,
    b_from_curvatures,
    build_immersion,
    random_orthogonal,
)
from lagkit.errors import InputError
from lagkit.families import HilfParams, degenerate_example, hilf_chart, tau_chart, torus_chart
from lagkit.invariants import analyze
from lagkit.taylor import Taylor, _basis, _index, _product_table
from tests.conftest import mesh
from tests.test_memory import CASES as MEMORY_CASES
from tests.test_memory import NUMPY_BUFFERS, product_transients

CASES = [(n, d) for n in range(1, 6) for d in range(1, 6)]
# name: (kernel, op of one pair, batch shape, layout of the coefficients).
# "matmul" is the matrix product as ``inv`` and ``invariants`` form it,
# ``einsum("mij,mjk->mik")`` on operands laid out batch-innermost.
MATRIX_PRODUCT = (lambda a, b: taylor.einsum("mij,mjk->mik", a, b),
                  lambda A, B: np.einsum("Zmij,Zmjk->Zmik", A, B), (3, 2, 2))
OPS = {
    "multiply": (lambda a, b: a * b, np.multiply, (3, 2, 2), np.asarray),
    "matmul": MATRIX_PRODUCT + (lambda c: taylor.batch_inner(c, 1),),
    "einsum": MATRIX_PRODUCT + (np.asarray,),
}


def is_batch_inner(c: np.ndarray) -> bool:
    """Whether the batch axis 1 of coefficients ``c`` has the smallest
    stride of the batch axes longer than 1."""
    return c.strides[1] == min(s for s, k in zip(c.strides[1:], c.shape[1:]) if k > 1)


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


@lru_cache(maxsize=None)
def double_loop_pairs(n: int, da: int, db: int) -> dict:
    """{target: [(i, j), ...]}: the pairs |i| <= da, |j| <= db of degree
    <= max(da, db) of each product monomial, in double-loop order."""
    exps, d = _basis(n, max(da, db)), max(da, db)
    deg = exps.sum(1)
    I, J = np.nonzero((deg[:, None] <= da) & (deg <= db) & (deg[:, None] + deg <= d))
    pairs = {}
    for k, i, j in zip(_index(n, d, exps[I] + exps[J]).tolist(), I.tolist(), J.tolist()):
        pairs.setdefault(k, []).append((i, j))
    return pairs


def table_pairs(n: int, da: int, db: int, za: int = 0, zb: int = 0, grad: bool = False):
    """({target: [(i, j), ...]}, filled targets, zero mask, walks) of the
    masked product table, asserting that each step pairs one coefficient
    of a factor with at most the output's top block of the other, one of
    its sides whole degree blocks, and a ``Grad`` operand one coefficient
    per step; and that a run opens its targets exactly when it holds
    their first pairs.  walks holds the orders the steps are consistent
    with: "ascending" over a's coefficients, "descending" over b's."""
    d = max(da, db)
    exps = _basis(n, d)
    deg, top = exps.sum(1), comb(n + d - 1, d)
    blocks = set(np.searchsorted(deg, np.arange(d + 2)).tolist())
    steps, fill, zero = _product_table(n, da, db, za, zb, grad)
    seen = {}
    for a_rows, b_rows, runs in steps:
        I, J = np.arange(len(exps))[a_rows], np.arange(len(exps))[b_rows]
        assert any({rows.start, rows.stop} <= blocks for rows in (a_rows, b_rows))
        assert min(len(I), len(J)) == 1 and max(len(I), len(J)) <= top
        assert not grad or len(I) == 1
        rows = max(len(I), len(J))
        for s, t, opens in runs:
            Is, Js = np.broadcast_to(I, rows)[s], np.broadcast_to(J, rows)[s]
            ts = np.arange(len(exps))[t]
            assert len(Is) == len(ts) > 0
            assert np.array_equal(_index(n, d, exps[Is] + exps[Js]), ts)
            for k, i, j in zip(ts.tolist(), Is.tolist(), Js.tolist()):
                assert (k not in seen) == opens, (da, db, i, j, k)
                seen.setdefault(k, []).append((i, j))
    pairs = list(zip(steps, steps[1:]))
    walks = {name for name, ordered in (
        ("ascending", all((p[0].start, p[1].start) < (q[0].start, q[1].start) for p, q in pairs)),
        ("descending", all(p[1].start >= q[1].start for p, q in pairs))) if ordered}
    assert walks and (not grad or "ascending" in walks)
    filled = [k for t in fill for k in range(len(exps))[t]]
    return seen, filled, zero, walks


@pytest.mark.parametrize("n,d", CASES)
def test_product_table_sums_in_double_loop_order(n, d):
    # Each monomial sums its pairs in ascending I, the order of the double
    # loop, whichever factor the table walks and however it merges; and so
    # does the table of a ``Grad`` operand, one coefficient of a per step.
    # Factors of degree d and of any lower degree, no block known zero:
    # every target is opened by a pair, none is filled.
    walks = []
    for da, db in {(d, k) for k in range(d + 1)} | {(k, d) for k in range(d + 1)}:
        for grad in (False, True):
            seen, filled, zero, walk = table_pairs(n, da, db, grad=grad)
            assert seen == double_loop_pairs(n, da, db), (da, db, grad)
            assert filled == [] and zero == 0
            if not grad:
                walks.append(walk)
    # At n >= 2 the (d, d) table walks a and merges its top block against
    # b's constant term, and from degree 3 on some table walks b.
    if n > 1:
        assert table_pairs(n, d, d)[3] == {"ascending"}
        assert max(a.stop - a.start for a, _, _ in _product_table(n, d, d)[0]) > 1
        assert d < 3 or {"descending"} in walks, walks


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("n,d", CASES)
def test_products_equal_naive_double_loop(name, n, d):
    kernel, op, shape, layout = OPS[name]
    rng = np.random.default_rng(1000 * n + d)
    K = len(_basis(n, d))
    a = layout(rng.standard_normal((K,) + shape))
    b = layout(rng.standard_normal((K,) + shape))
    got = kernel(Taylor(a, n, d), Taylor(b, n, d)).c
    assert np.array_equal(got, naive_product(op, a, b, n, d))


def gathered_product(op, a: Taylor, b: Taylor) -> np.ndarray:
    """The product with every pair gathered: rank group r holds the r-th
    pair of each monomial that has one; group 0 is computed at once, then
    each later group is added to its targets with ``+=``."""
    pairs = double_loop_pairs(a.n, a.d, b.d)
    ranks = [[(k, p[r]) for k, p in sorted(pairs.items()) if len(p) > r]
             for r in range(max(map(len, pairs.values())))]
    I, J = (np.array([pair[x] for _, pair in ranks[0]]) for x in (0, 1))
    out = op(a.c[I], b.c[J])
    for group in ranks[1:]:
        t, I, J = (np.array(v) for v in zip(*((k, i, j) for k, (i, j) in group)))
        out[t] += op(a.c[I], b.c[J])
    return out


# Every spec that ``invariants`` runs through ``taylor.einsum``, with the
# shapes of its operands at n (the batch axis m first).
SPECS = {
    "mia,mja->mij": lambda n: ((n, n + 1), (n, n + 1)),
    "mij,mj->mi": lambda n: ((n, n), (n,)),
    "mia,ma->mi": lambda n: ((n, n + 1), (n + 1,)),
    "mi,mia->ma": lambda n: ((n,), (n, n + 1)),
    "mija,ma->mij": lambda n: ((n, n, n + 1), (n + 1,)),
    "mij,mji->m": lambda n: ((n, n), (n, n)),
    "mkl,mlij->mkij": lambda n: ((n, n), (n, n, n)),
    "mkab,mkl->mabl": lambda n: ((n, n, n), (n, n + 4)),
    "mab,mabl->ml": lambda n: ((n, n), (n, n, n + 4)),
}
KERNELS = {
    "multiply": (OPS["multiply"][0], np.multiply, lambda n: ((3, 2, 2), (3, 2, 2))),
    "matmul": (MATRIX_PRODUCT[0], MATRIX_PRODUCT[1], lambda n: ((n, n), (n, n))),
    **{spec: ((lambda a, b, spec=spec: taylor.einsum(spec, a, b)),
              (lambda A, B, spec=spec: np.einsum("Z" + spec.replace(",", ",Z").replace(">", ">Z"),
                                                 A, B)), shapes)
       for spec, shapes in SPECS.items()},
}


LAYOUTS = {
    "contiguous": lambda rng, shape: rng.standard_normal(shape),
    "swapped": lambda rng, shape: np.moveaxis(
        rng.standard_normal(shape[:1] + shape[2:] + shape[1:2]), -1, 1),
    "batch-inner": lambda rng, shape: taylor.batch_inner(rng.standard_normal(shape), 1),
}


@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("name", list(KERNELS))
@pytest.mark.parametrize("n", range(2, 6))
def test_view_path_equals_gathered_product(n, name, layout):
    # The kernel reads each pair as views, a.c[i:i+1] against a block of
    # b.c; the bits, signed zeros included, must be those of the gathered
    # pairs, for factors of equal and unequal degree and for operands
    # whose batch axis m is innermost in memory, laid out by hand or by
    # ``taylor.batch_inner``, whose products keep that layout.  A full
    # contraction of C-ordered operands would sum in another order, so it
    # is refused.
    kernel, op, shapes = KERNELS[name]
    rng = np.random.default_rng(5000 * n + len(layout) + len(name))
    for da, db in product(range(6), repeat=2):
        a, b = (Taylor(LAYOUTS[layout](rng, (len(_basis(n, k)), 3) + shape), n, k)
                for k, shape in zip((da, db), shapes(n)))
        if name.endswith("->m") and layout == "contiguous":
            with pytest.raises(InputError, match=r"taylor\.batch_inner"):
                kernel(a, b)
            continue
        got = kernel(a, b)
        assert got.d == max(da, db)
        assert got.c.tobytes() == gathered_product(op, a, b).tobytes(), (da, db)
        assert layout == "contiguous" or is_batch_inner(got.c), (da, db)


def masked_operands(rng, n: int, da: int, db: int, shapes, layout, m: int = 3):
    """Taylors a, b of degrees da, db over m points laid out by ``layout``,
    each with a random zero mask whose blocks are zeroed in the data."""
    out = []
    for k, shape in zip((da, db), shapes):
        c = LAYOUTS[layout](rng, (len(_basis(n, k)), m) + shape)
        zero = int(rng.integers(0, 2 << k))
        deg = _basis(n, k).sum(1)
        c[zero >> deg & 1 == 1] = 0.0
        out.append(Taylor(c, n, k, zero))
    return out


@pytest.mark.parametrize("name,layout", [("multiply", "contiguous"), ("matmul", "batch-inner"),
                                         ("mij,mji->m", "batch-inner")])
@pytest.mark.parametrize("seed", range(12))
def test_masked_product_equals_unmasked_where_nonzero(seed, name, layout):
    # Random n <= 5, degrees <= 5 and zero masks: the masked table keeps
    # exactly the double-loop pairs whose two blocks are not flagged, in
    # their order; each target is opened by one run or filled with 0.0,
    # once; the flagged output blocks are the filled ones.  So every
    # coefficient the unmasked kernel gives nonzero keeps its bits, and
    # the others are zero.
    kernel, op, shapes = KERNELS[name]
    rng = np.random.default_rng(9000 + seed)
    for _ in range(6):
        n, da, db = (int(v) for v in rng.integers(1, 6, 3))
        da, db = da - int(rng.integers(0, 2)), db - int(rng.integers(0, 2))
        a, b = masked_operands(rng, n, da, db, shapes(n), layout)
        deg = _basis(n, max(da, db)).sum(1)
        seen, filled, zero, _ = table_pairs(n, da, db, a.zero, b.zero)
        assert table_pairs(n, da, db, a.zero, b.zero, grad=True)[:3] == (seen, filled, zero)
        kept = {k: [(i, j) for i, j in pairs
                    if not (a.zero >> deg[i] & 1 or b.zero >> deg[j] & 1)]
                for k, pairs in double_loop_pairs(n, da, db).items()}
        if not any(kept.values()):        # a table with no step drops the masks
            kept = double_loop_pairs(n, da, db)
        assert seen == {k: p for k, p in kept.items() if p}, (n, da, db, a.zero, b.zero)
        assert sorted(filled) == sorted(k for k, p in kept.items() if not p)
        assert zero == sum(1 << k for k in set(deg[filled].tolist()))
        got = kernel(a, b)
        want = gathered_product(op, a, b)
        assert got.zero == zero
        nonzero = want != 0.0
        assert np.array_equal(got.c[nonzero], want[nonzero]), (n, da, db, a.zero, b.zero)
        assert np.all(got.c[~nonzero] == 0.0)
        assert np.all(got.c[zero >> deg & 1 == 1] == 0.0)


# Horner steps (out + c_k) h of ``analyze`` whose h is sparse, as (n, da,
# db, zb): hilf's quadratic denominator at n = 3 (h's blocks 1 and 2) in
# the last two steps of degree 5, and a seed of the torus (block 1 alone).
HORNER_STEPS = [(3, 4, 5, 0b111001), (3, 3, 4, 0b11001), (2, 4, 5, 0b111101)]


@pytest.mark.parametrize("n,da,db,zb", HORNER_STEPS)
def test_horner_step_walks_h_in_descending_order(n, da, db, zb):
    # Walked over a, each coefficient of a is one step against h's few
    # nonzero blocks; walked over h in descending order, each of h's few
    # nonzero coefficients meets runs of a's blocks.  That walk is kept,
    # sums each target's pairs in ascending I as the double loop does, and
    # gives the bits of the gathered pairs wherever they are nonzero.
    seen, filled, zero, walks = table_pairs(n, da, db, 0, zb)
    assert walks == {"descending"}
    deg = _basis(n, db).sum(1)
    kept = {k: [(i, j) for i, j in pairs if not zb >> deg[j] & 1]
            for k, pairs in double_loop_pairs(n, da, db).items()}
    assert seen == {k: p for k, p in kept.items() if p} and (filled, zero) == ([0], 1)
    rng = np.random.default_rng(n + da + zb)
    for name, layout in [("multiply", "contiguous"), ("matmul", "batch-inner"),
                         ("mij,mji->m", "batch-inner")]:
        kernel, op, shapes = KERNELS[name]
        a, b = (LAYOUTS[layout](rng, (len(_basis(n, k)), 3) + shape)
                for k, shape in zip((da, db), shapes(n)))
        b[zb >> deg & 1 == 1] = 0.0
        a, b = Taylor(a, n, da), Taylor(b, n, db, zb)
        got, want = kernel(a, b).c, gathered_product(op, a, b)
        nonzero = want != 0.0
        assert np.array_equal(got[nonzero], want[nonzero]) and np.all(got[~nonzero] == 0.0)


# Products whose first operand is the k-th partials of x, as II is formed
# from x's second partials, and the shape of b at n.
GRAD_SPECS = {1: {"mia,ma->mi": lambda n: (n + 1,), "mia,mja->mij": lambda n: (n, n + 1)},
              2: {"mija,ma->mij": lambda n: (n + 1,)}}


@pytest.mark.parametrize("layout", ["contiguous", "batch-inner"])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", range(2, 6))
def test_grad_operand_equals_formed_partials(n, k, layout, monkeypatch):
    # A product that reads the k-th partials of x one coefficient per
    # step, each gathered from x.c, gives the bits, the memory layout and
    # the mask of the same product of x.grad(k), for random masks; beyond
    # its output it holds one degree block and one gathered coefficient,
    # never an array the size of x.grad(k).
    rng = np.random.default_rng(700 * n + 10 * k + len(layout))
    d, m = (5 if n <= 3 else 4), 600 // (n - 1)
    for spec, shape in GRAD_SPECS[k].items():
        for _ in range(3):
            db = int(rng.integers(1, d - k + 1))
            x, b = masked_operands(rng, n, d, db, ((n + 1,), shape(n)), layout, m)
            want, got = taylor.einsum(spec, x.grad(k), b), []
            with monkeypatch.context() as patch:
                (extra, block, read), = product_transients(
                    patch, lambda: got.append(taylor.einsum(spec, taylor.Grad(x, k), b)))
            got, = got
            assert got.c.tobytes() == want.c.tobytes(), (spec, x.zero, b.zero)
            assert got.c.strides == want.c.strides and (got.d, got.zero) == (want.d, want.zero)
            assert layout == "contiguous" or is_batch_inner(got.c)
            assert extra <= block + read + NUMPY_BUFFERS < x.grad(k).c.nbytes, (spec, extra)


@pytest.mark.parametrize("n", range(2, 5))
def test_subtracted_product_takes_each_pair_in_double_loop_order(n):
    # Hess Y = Y_ab - Gamma^k_ab Y_k subtracts each pair from Y_ab in
    # place, in ascending I, and builds no product: the bits are those of
    # one subtraction per pair in double-loop order.
    spec, (sa, sb) = "mkab,mkl->mabl", SPECS["mkab,mkl->mabl"](n)
    rng = np.random.default_rng(8000 + n)
    for da, db in [(1, 1), (2, 2), (1, 2), (2, 1)]:
        a, b = (Taylor(taylor.batch_inner(rng.standard_normal((len(_basis(n, k)), 4) + shape), 1),
                       n, k) for k, shape in ((da, sa), (db, sb)))
        d = max(da, db)
        minuend = Taylor(taylor.batch_inner(rng.standard_normal((len(_basis(n, d)), 4, n, n, n + 4)),
                                            1), n, d)
        want = minuend.c.copy()
        for k, pairs in double_loop_pairs(n, da, db).items():
            for i, j in pairs:
                want[k] -= np.einsum("Zmkab,Zmkl->Zmabl", a.c[i:i + 1], b.c[j:j + 1])[0]
        got = taylor.einsum(spec, a, b, subtract_from=minuend)
        assert got.c is minuend.c
        assert got.c.tobytes() == want.tobytes(), (da, db)


@pytest.mark.parametrize("name", sorted(OPS))
def test_products_and_truncated_copies_own_their_memory(name):
    # A product's output, and a truncation copied with ``copy``, share no
    # memory with an operand, so neither keeps a freed operand alive.
    kernel, _, shape, layout = OPS[name]
    rng = np.random.default_rng(6)
    for n, (da, db) in product((2, 3), [(1, 3), (3, 1), (2, 2), (3, 3)]):
        a, b = (Taylor(layout(rng.standard_normal((len(_basis(n, k)),) + shape)), n, k)
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
    # at the end must, peaks near 25 outputs; reading each pair as views
    # holds one buffer of at most one degree block (21 coefficients).
    rng = np.random.default_rng(3)
    for name, (kernel, _, _, layout) in OPS.items():
        a = Taylor(layout(rng.standard_normal((56, 125, 3, 3))), 3, 5)
        b = Taylor(layout(rng.standard_normal((56, 125, 3, 3))), 3, 5)
        kernel(a, b)         # builds the (3, 5, 5) table outside the trace
        tracemalloc.start()
        try:
            out = kernel(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.c.nbytes <= out.c.nbytes * 21 // 56 + NUMPY_BUFFERS, name


@pytest.mark.parametrize("layout", ["contiguous", "batch-inner"])
@pytest.mark.parametrize("b_shape", [(), (3,), (2000, 3), (2, 2000, 3)])
def test_value_minus_taylor_is_negation_plus_value_in_one_buffer(b_shape, layout):
    # value - t runs -t + value's operations in their order, -0.0 kept as
    # the sum makes it, in the layout and mask of -t + value, but in one
    # output buffer: -t is not formed on the way.
    rng = np.random.default_rng(12)
    c = rng.standard_normal((10, 2000, 3))
    c[rng.random(c.shape) < 0.2] = -0.0
    c[rng.random(c.shape) < 0.2] = 0.0
    c[6:] = 0.0                       # degree 3 flagged zero, as 0.0 and -0.0
    c[7:, ::2] = -0.0
    t = Taylor(taylor.batch_inner(c, 1) if layout == "batch-inner" else c, 2, 3, 0b1000)
    b = rng.standard_normal(b_shape)
    b[rng.random(b_shape) < 0.3] = -0.0
    b = b if b_shape else float(b)
    want = -t + b
    tracemalloc.start()
    try:
        got = b - t
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.c.tobytes() == want.c.tobytes() and got.c.strides == want.c.strides
    assert got.zero == want.zero == 0b1000
    assert peak <= got.c.nbytes + NUMPY_BUFFERS < got.c.nbytes + t.c.nbytes


# Full-degree references: Horner's rule and the Neumann series as they ran
# before each step was cut to the degree that is read.

def full_compose(self, coeffs):
    h = self - self.value
    out = h * coeffs[self.d]
    for k in range(self.d - 1, 0, -1):
        out = (out + coeffs[k]) * h
    return out + coeffs[0]


def full_inv(A):
    A0inv = taylor.batch_inner(np.linalg.inv(A.value))
    P = -taylor.einsum("mij,mjk->mik", A - A.value, A0inv)
    S = taylor.batch_inner(np.broadcast_to(np.eye(A.shape[-1]), A.shape))
    for _ in range(A.d):
        S = taylor.einsum("mij,mjk->mik", P, S) + np.eye(A.shape[-1])
    return taylor.einsum("mij,mjk->mik", A0inv, S)


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
    # A list holding A is emptied, so that A is freed inside inv.
    held = [A]
    assert np.array_equal(taylor.inv(held).c, got.c) and held == []


@pytest.mark.parametrize("n", [2, 3])
def test_batch_inner_operands_give_batch_inner_coefficients(n):
    # Every product step runs one loop over the points only while each
    # Taylor it reads keeps the batch axis innermost.  Products keep it
    # (test_view_path_equals_gathered_product); so must inv, grad(k), copy
    # and arithmetic with a value.
    rng = np.random.default_rng(7000 + n)
    a = Taylor(taylor.batch_inner(rng.standard_normal((len(_basis(n, 3)), 9, n, n)), 1), n, 3)
    A = a + 3.0 * np.eye(n)
    for t in (taylor.inv(A), a.grad(), a.grad(2), a.truncate(1).copy(), a * 2.0, a + 1.0, A):
        assert is_batch_inner(t.c), t.c.strides


# Known-zero blocks: ``variables`` flags the seeds' blocks >= 2, _compose
# the constant block of h, ``inv`` that of P; every operation passes the
# mask on.  A flag on a block that is not zero would drop nonzero pairs.

def seeded_inverse():
    # A = 3 Id + U U^T of degree 3 from the seeds: P of ``inv`` has no
    # constant block, and S_j has one again after S.c[0] += Id.
    U = taylor.variables(np.random.default_rng(10).uniform(-0.5, 0.5, (7, 3)), 3)
    return taylor.inv(U[..., :, None] * U[..., None, :] + 3.0 * np.eye(3))


def constructed_case():
    b = b_from_curvatures([1, 2, 3])
    c = ConstructionConstants(b, cmat=random_orthogonal(3, seed=1),
                                     beta1=np.array([0.3, -0.1, 0.2]))
    return build_immersion(c).chart, mesh(3, 0.3, 3) * b


MASK_CASES = {
    "hilf123": lambda: (hilf_chart(HilfParams(a=(1.0, 2.0, 3.0))), mesh(3, 0.4, 5)),
    "hilf1-2phi": lambda: (hilf_chart(HilfParams(a=(1.0, -2.0), phi=0.3)), mesh(2, 0.3, 5) + 0.2),
    "torus": lambda: (torus_chart(2.0, 1.0), mesh(2, 0.9, 9)),
    "tau": lambda: (tau_chart(degenerate_example(HilfParams(a=(1.0, 2.0, 3.0)))),
                    mesh(3, 0.3, 3) + 0.3),
    "constructed": constructed_case,
}


def flagged_blocks(t: Taylor) -> np.ndarray:
    """The coefficients of ``t`` in the degree blocks its mask flags zero."""
    return t.c[t.zero >> _basis(t.n, t.d).sum(1) & 1 == 1]


def test_masks_follow_each_operation():
    # t has blocks 0 and 2 of degree 3 flagged (and zeroed), u blocks 0
    # and 1: a scalar add clears block 0, a sum of Taylors keeps the
    # blocks zero in both, truncate keeps those at or below its degree,
    # grad(k) shifts the mask down by k, the seeds flag blocks >= 2, and
    # views, copies and linear maps keep the mask.
    rng = np.random.default_rng(11)
    deg = _basis(2, 3).sum(1)
    t, u = (Taylor(np.where((zero >> deg & 1 == 1)[:, None, None], 0.0,
                            rng.standard_normal((10, 4, 3))), 2, 3, zero) for zero in (0b101, 0b011))
    seeds = taylor.variables(rng.standard_normal((4, 2)), 3)
    cases = {
        "scalar add": (t + 1.0, 0b100), "add": (t + u, 0b001), "sub": (t - u, 0b001),
        "rsub": (1.0 - t, 0b100), "neg": (-t, 0b101), "scale": (2.0 * t, 0b101),
        "matmul": (t @ np.ones((3, 2)), 0b101), "view": (t[1:, ::2], 0b101),
        "copy": (t.copy(), 0b101),
        "swapaxes": (t.swapaxes(-1, -2), 0b101), "truncate": (t.truncate(1), 0b01),
        "grad": (t.grad(), 0b10), "grad2": (t.grad(2), 0b1), "sum": (np.sum(t, axis=-1), 0b101),
        "stack": (np.stack([t, u], axis=0), 0b001), "concatenate": (np.concatenate([t, t], -1), 0b101),
        "seeds": (seeds, 0b1100), "seeds grad": (seeds.grad(), 0b110),
        "seeds square": (seeds * seeds, 0b1000),
    }
    for name, (got, zero) in cases.items():
        assert got.zero == zero, name
        assert np.all(flagged_blocks(got) == 0.0), name


@pytest.mark.parametrize("case", list(MASK_CASES) + ["generic", "inverse"])
def test_blocks_flagged_zero_are_zero(case, monkeypatch, request):
    # Every operand and every output of every product, through analyze on
    # each chart (``conftest``'s generic graph too) or ``inv`` of a matrix
    # of seeds, holds exactly 0.0 in each block its mask flags; and some
    # blocks are flagged.
    product, flags = taylor._product, []

    def checked(op, a, b, subtract_from=None):
        out = product(op, a, b, subtract_from)
        for t in (a, b, out):
            if isinstance(t, Taylor):
                assert np.all(flagged_blocks(t) == 0.0), (t.n, t.d, t.zero)
                flags.append(t.zero)
        return out

    monkeypatch.setattr(taylor, "_product", checked)
    if case == "inverse":
        assert np.all(flagged_blocks(seeded_inverse()) == 0.0)
    elif case == "generic":
        analyze(request.getfixturevalue("generic_chart"), request.getfixturevalue("generic_points"))
    else:
        analyze(*MASK_CASES[case]())
    assert any(flags)


def product_counts(chart, grid) -> tuple:
    """(steps, runs) of the product tables run by one ``analyze``."""
    table, counts = taylor._product_table, [0, 0]

    def counted(*args):
        out = table(*args)
        counts[0] += len(out[0])
        counts[1] += sum(len(runs) for _, _, runs in out[0])
        return out

    taylor._product_table = counted
    try:
        analyze(chart, grid)
    finally:
        taylor._product_table = table
    return tuple(counts)


@pytest.mark.parametrize("case,steps,runs", [
    # 485 steps and 1,105 runs before steps ran over runs of either factor,
    # 489 and 1,115 before x_map of hilf squared U once, 716 and 1,967
    # before blocks known zero were skipped.
    pytest.param("hilf3-5", 318, 939, id="hilf3-5"),
    # 465 steps and 667 runs before steps ran over runs of either factor,
    # 571 and 870 before blocks known zero were skipped.
    pytest.param("torus-33", 345, 539, id="torus-33"),
])
def test_analyze_runs_bounded_product_steps(case, steps, runs):
    # Machine-independent cost of the Taylor products of one analyze: the
    # seeds' blocks >= 2, h's and P's constant blocks are skipped, and each
    # table walks the factor that costs fewer steps plus runs.
    got = product_counts(*MEMORY_CASES[case]())
    assert got[0] <= steps and got[1] <= runs, got
