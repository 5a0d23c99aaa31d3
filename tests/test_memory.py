"""Peak and retained memory of ``invariants.analyze``, the transient of
each Taylor product inside it, and its row blocks.

Each peak bound on ``analyze`` is the tracemalloc figure measured once
every buffer lived from its first to its last read, as listed here,
plus 5% (hilf5-3 keeps the lower figure of an earlier layout; see its
comment):

* the degree-5 jet is kept as x alone, with the C-order values of x and
  xi0, from which the lift's Y and eta are formed once N is read off;
* dx is gathered from x for I, for dx . xi0 once I is inverted, and for
  v, never held through I^-1; ddx is read one coefficient per product
  step, and x is freed once II and x.xi are formed;
* III is formed from a view of the degree-2 II before II is inverted,
  and I^-1 is freed there; II is cut to degree 1, all B reads, and the
  degree-3 II is handed to ``taylor.inv`` as its only reference, freed
  once A_0^-1 and P are formed, and P before the last product;
* x.xi and xi are freed before rho y is formed, and the partials of
  III, r, B and log rho are read off before N, so that Y and g alone
  live through it;
* in the N phase Hess Y is gathered before Y is cut to a degree-2 copy,
  which frees the degree-3 Y, dY and the degree-1 Y are taken from that
  copy, Gamma Y_k is subtracted from Hess Y pair by pair, g^-1 is freed
  once Delta_g Y is formed, and Gamma, Hess Y and Delta_g Y are cut to
  their values once read;
* a product reads its operands as views and holds one degree block of
  its output, and value - Taylor is built in one buffer.

Each retained bound is the figure measured when ``analyze`` came to
build the lift of its regular rows itself and the ``Analysis`` to keep
of the lift only x, r, rho, Y, eta and k, plus 5%.  A product that
gathers an operand it could read as a view, a partials operand formed
whole, a truncation that keeps its parent's buffer alive, a jet or an
intermediate kept past its last read, or a lift array kept that no
check reads shows here first.
The product tables are built by a first call outside the trace.

A grid past ``invariants.BLOCK_BYTES`` runs in row blocks: its peak is
bounded by what the call returns and one block's budget, and its fields
are those of one call, bit for bit and in the same memory layout.
"""

import gc
import tracemalloc
from math import comb

import numpy as np
import pytest

from lagkit import invariants, taylor
from lagkit.families import HilfParams, hilf_chart, torus_chart
from lagkit.invariants import analyze
from tests.conftest import mesh

MB = 1e6
# numpy's ufunc and einsum iterators may hold a buffer of np.getbufsize()
# elements per operand: a fixed cost that does not grow with the batch.
NUMPY_BUFFERS = 3 * np.getbufsize() * 8

CASES = {
    "torus-33": lambda: (torus_chart(2.0, 1.0), mesh(2, 0.9, 33)),
    "hilf3-5": lambda: (hilf_chart(HilfParams(a=(1.0, 2.0, 3.0))), mesh(3, 0.4, 5)),
    "hilf5-3": lambda: (hilf_chart(HilfParams(a=(1.0, 2.0, 3.0, 4.0, 5.0))),
                        mesh(5, 0.3, 3, center=[0.3] * 5)),
}


def traced_analyze(chart, grid):
    """(peak, retained) bytes of one ``analyze`` call; retained is what the
    returned ``Analysis`` still holds."""
    analyze(chart, grid)
    gc.collect()
    tracemalloc.start()
    try:
        result = analyze(chart, grid)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.grid.shape[0] == len(grid)
    return peak, retained


@pytest.mark.parametrize("case,peak_mb,retained_mb", [
    # 2.526 MB peak since the lift's Y and eta are formed after N and III
    # before II is inverted (2.604 MB since the N phase frees each Taylor
    # at its last read, 2.654 MB before, 2.656 MB since II is freed inside
    # its inverse, 2.664 MB since each step holds only what its next step
    # reads, 2.838 MB since analyze builds the lift of its regular rows,
    # 2.900 MB since each buffer is freed at its last read, 3.25 MB before;
    # 3.39 MB before x and xi were freed once Y is formed and the degree-2
    # II, I^-1 and rho^2 copied, 3.46 MB before Hess Y took Gamma Y_k pair
    # by pair), 0.976 MB retained (1.161 MB with the lift's II, III, g, e
    # and grid copy).
    pytest.param("torus-33", 2.526 * 1.05, 0.976 * 1.05, id="torus-33"),
    # 1.040 MB peak since I is inverted before dx . xi0 is formed and III
    # before II is inverted (1.089 MB since II is freed inside its inverse,
    # 1.179 MB since each step holds only what its next step reads, 1.269
    # MB since analyze builds the lift, 1.283 MB since each buffer is freed
    # at its last read, 1.36 MB since II reads ddx one coefficient per
    # step, 1.62 MB before, 1.65 and 2.15 MB earlier), 0.283 MB retained
    # (0.328 MB before).
    pytest.param("hilf3-5", 1.040 * 1.05, 0.283 * 1.05, id="hilf3-5"),
    # 14.132 MB peak since I is inverted before dx . xi0 is formed (14.700
    # MB since a product step runs over a run of whole degree blocks, up to
    # the output's top one, in the last Neumann step of taylor.inv; 14.019
    # MB since II is freed inside its inverse, 15.048 MB since each step
    # holds only what its next step reads, 16.74 MB since analyze builds
    # the lift, 16.80 MB since each buffer is freed at its last read, 18.1
    # MB before, 27.8 MB with ddx formed whole), 2.270 MB retained (2.488
    # MB before).  The bound keeps the lower 14.019 MB.
    pytest.param("hilf5-3", 14.019 * 1.05, 2.270 * 1.05, id="hilf5-3"),
])
def test_analyze_memory_is_bounded(case, peak_mb, retained_mb):
    peak, retained = traced_analyze(*CASES[case]())
    assert peak <= peak_mb * MB, f"peak {peak / MB:.3f} MB"
    assert retained <= retained_mb * MB, f"retained {retained / MB:.3f} MB"


# hilf (1, ..., n) on 3^n and the torus on 9^2 and 33^2, each run in one block.
POINT_CASES = {
    **{f"hilf{n}-3": (lambda n=n: (hilf_chart(HilfParams(a=tuple(map(float, range(1, n + 1))))),
                                    mesh(n, 0.3, 3, center=[0.3] * n)))
       for n in range(2, 6)},
    "torus-9": lambda: (torus_chart(2.0, 1.0), mesh(2, 0.9, 9)),
    "torus-33": CASES["torus-33"],
}


@pytest.mark.parametrize("case", sorted(POINT_CASES))
def test_a_point_holds_at_most_its_budget_at_the_peak(case):
    # The premise of the row blocks: beyond what analyze returns, a point
    # holds at most invariants._point_bytes(n), six degree-5 jets of x, at
    # the peak.  Measured: 2.8 (torus 33^2) to 4.5 (hilf n = 3) jets.
    chart, grid = POINT_CASES[case]()
    assert invariants._row_blocks(chart.n, len(grid)) == 1
    peak, retained = traced_analyze(chart, grid)
    budget = len(grid) * invariants._point_bytes(chart.n)
    assert peak - retained <= budget + NUMPY_BUFFERS, \
        f"transient {peak - retained} bytes against {budget} + {NUMPY_BUFFERS}"


def test_a_large_grid_peaks_at_what_it_returns_and_one_block():
    # hilf3 on 15^3 peaked at 31.25 MB in one call, 7.17 MB of it
    # retained; in row blocks its transient is one block's budget at most.
    chart, grid = hilf_chart(HilfParams(a=(1.0, 2.0, 3.0))), mesh(3, 0.4, 15)
    assert invariants._row_blocks(chart.n, len(grid)) >= 2
    peak, retained = traced_analyze(chart, grid)
    assert peak <= retained + invariants.BLOCK_BYTES + NUMPY_BUFFERS, \
        f"peak {peak / MB:.3f} MB, retained {retained / MB:.3f} MB"


def axis_order(a):
    """The axes of ``a`` from innermost in memory out (None without an element)."""
    return tuple(np.argsort(a.strides, kind="stable")) if a.size else None


# Grids run in one block and in at least 3: a torus, the torus across the
# circle v = pi/2, whose middle row of each u column has a vanishing
# curvature, hilf (1, 2, 3) and hilf (1, 2) at half-width 1.5, whose rows
# 7-13 and 35-41 are irregular: in 7 blocks of 7 rows, two blocks have no
# regular row, and so no layout; in 9 or 17 blocks, two blocks have
# exactly one regular row.
BLOCKED = {
    "torus-33": CASES["torus-33"],
    "torus-circle": lambda: (torus_chart(2.0, 1.0), mesh(2, 0.9, 33, center=[0.0, np.pi / 2])),
    "hilf3-7": lambda: (hilf_chart(HilfParams(a=(1.0, 2.0, 3.0))), mesh(3, 0.4, 7)),
    "hilf2-7-irregular": lambda: (hilf_chart(HilfParams(a=(1.0, 2.0))), mesh(2, 1.5, 7)),
}

# The lift's arrays keep the chart jet's C order: their points are outermost.
LIFT = ("grid", "x", "r", "rho", "Y", "eta", "k")


def analyze_in(blocks, chart, grid, monkeypatch):
    """``analyze(chart, grid)`` with the budget set to run it in ``blocks`` row blocks."""
    budget = -(-len(grid) * invariants._point_bytes(chart.n) // blocks)
    monkeypatch.setattr(invariants, "BLOCK_BYTES", budget)
    assert invariants._row_blocks(chart.n, len(grid)) == blocks
    return analyze(chart, grid)


@pytest.mark.parametrize("case", sorted(BLOCKED))
def test_row_blocks_give_the_fields_of_one_call(case, monkeypatch):
    chart, grid = BLOCKED[case]()
    whole = analyze_in(1, chart, grid, monkeypatch)
    assert case not in ("torus-circle", "hilf2-7-irregular") or 0 < len(whole.grid) < len(grid)
    for blocks in (3, 7, 9, 17) if case == "hilf2-7-irregular" else (3, 7):
        blocked = analyze_in(blocks, chart, grid, monkeypatch)
        for name, want in vars(whole).items():
            got = getattr(blocked, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (blocks, name)
            assert axis_order(got) == axis_order(want), (blocks, name)
            assert axis_order(want)[0] == 0 or name in LIFT, name


def product_transients(monkeypatch, call):
    """[(extra, block, read)] for each ``taylor._product`` made by
    ``call()``: the bytes it held at its peak beyond its inputs and its
    output (none, for a product subtracted from a Taylor it was given),
    the bytes of the output's top degree block, and those of one
    coefficient of a first operand it gathers (a ``taylor.Grad``; 0 for
    a view)."""
    product, calls = taylor._product, []

    def traced(op, a, b, subtract_from=None):
        read = a.coefficients(slice(0, 1)).nbytes if isinstance(a, taylor.Grad) else 0
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = product(op, a, b, subtract_from)
        made = 0 if subtract_from is not None else out.c.nbytes
        extra = tracemalloc.get_traced_memory()[1] - before - made
        calls.append((extra, out.c.nbytes // len(out.c) * comb(out.n + out.d - 1, out.d), read))
        return out

    monkeypatch.setattr(taylor, "_product", traced)
    tracemalloc.start()
    try:
        call()
    finally:
        tracemalloc.stop()
    return calls


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_product_holds_its_output_and_one_degree_block(case, monkeypatch):
    # Every product in analyze reads its operands as views, or gathers
    # one coefficient of a partials operand at a time: beyond what it
    # returns it holds one buffer of at most one degree block of its
    # output, that coefficient, and numpy's iterator buffers.  A gather of
    # an operand's coefficients, as a rank-group kernel makes, is larger.
    chart, grid = CASES[case]()
    analyze(chart, grid)
    calls = product_transients(monkeypatch, lambda: analyze(chart, grid))
    assert len(calls) > 50
    extra, block, read = max(calls, key=lambda c: c[0] - c[1] - c[2])
    assert extra <= block + read + NUMPY_BUFFERS, \
        f"{extra} bytes beyond a {block}-byte block and a {read}-byte read"
