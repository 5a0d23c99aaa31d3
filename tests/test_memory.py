"""Peak and retained memory of ``invariants.analyze``, and the transient
of each Taylor product inside it.

Each peak bound on ``analyze`` is the tracemalloc figure measured when
the degree-5 jet was kept as x alone, the products stopped gathering
their operands, Hess Y took Gamma Y_k pair by pair and
``_taylor_fields`` freed x, xi and the degree-3 buffers of II, I^-1 and
rho^2 once Y was formed, each buffer was freed at its last read (I^-1
cut to degree 2 once the tangential part of xi0 is taken, III formed
right after M and II then cut to degree 1, the degree-1 Taylors of N,
Delta_g Y, Gamma and Hess Y read off before the curvature projection, P
freed before the last product of ``taylor.inv``, and value - Taylor
built in one buffer), and each step came to hold only what its next
step reads (dx gathered again from x after I^-1 rather than held
through it, x.xi kept in place of x once II is formed, the partials of
III, r, B and log rho read off before N is formed, and dY taken from
N's own).  Each retained bound is the figure measured when ``analyze``
came to build the lift of its regular rows itself and the ``Analysis``
to keep of the lift only x, r, rho, Y, eta and k.  Both are those
figures plus 5%.  A product that gathers an operand it could
read as a view, a partials operand formed whole, a truncation that
keeps its parent's buffer alive, a jet or an intermediate kept past its
last read, or a lift array kept that no check reads shows here first.
The product tables are built by a first call outside the trace.
"""

import gc
import tracemalloc
from math import comb

import numpy as np
import pytest

from lagkit import taylor
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
    # 2.664 MB peak since each step holds only what its next step reads
    # (2.838 MB since analyze builds the lift of its regular rows, 2.900 MB
    # since each buffer is freed at its last read, 3.25 MB before; 3.39 MB
    # before x and xi were freed once Y is formed and the degree-2 II, I^-1
    # and rho^2 copied, 3.46 MB before Hess Y took Gamma Y_k pair by pair),
    # 0.976 MB retained (1.161 MB with the lift's II, III, g, e and grid
    # copy).
    pytest.param("torus-33", 2.664 * 1.05, 0.976 * 1.05, id="torus-33"),
    # 1.179 MB peak since each step holds only what its next step reads
    # (1.269 MB since analyze builds the lift, 1.283 MB since each buffer is
    # freed at its last read, 1.36 MB since II reads ddx one coefficient
    # per step, 1.62 MB before, 1.65 and 2.15 MB earlier), 0.283 MB
    # retained (0.328 MB before).
    pytest.param("hilf3-5", 1.179 * 1.05, 0.283 * 1.05, id="hilf3-5"),
    # 15.048 MB peak since each step holds only what its next step reads
    # (16.74 MB since analyze builds the lift, 16.80 MB since each buffer is
    # freed at its last read, 18.1 MB before, 27.8 MB with ddx formed
    # whole), 2.270 MB retained (2.488 MB before).
    pytest.param("hilf5-3", 15.048 * 1.05, 2.270 * 1.05, id="hilf5-3"),
])
def test_analyze_memory_is_bounded(case, peak_mb, retained_mb):
    peak, retained = traced_analyze(*CASES[case]())
    assert peak <= peak_mb * MB, f"peak {peak / MB:.3f} MB"
    assert retained <= retained_mb * MB, f"retained {retained / MB:.3f} MB"


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
