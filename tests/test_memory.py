"""Peak and retained memory of ``invariants.analyze``.

Each bound is the tracemalloc figure measured when the Taylor products
stopped copying their operands, plus 5%.  A product that gathers an
operand it could read as a view, a truncation that keeps its parent's
buffer alive, or a jet kept past its last read shows here first.  The
product tables are built by a first call outside the trace.
"""

import gc
import tracemalloc

import pytest

from lagkit.families import HilfParams, hilf_chart, torus_chart
from lagkit.invariants import analyze
from tests.conftest import mesh

MB = 1e6


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
    # 5.29 MB peak before, 1.50 MB retained.
    ("torus-33", 4.10 * 1.05, 1.50 * 1.05),
    # 2.61 MB peak before.
    ("hilf3-5", 2.15 * 1.05, None),
])
def test_analyze_memory_is_bounded(case, peak_mb, retained_mb):
    chart, grid = {
        "torus-33": (torus_chart(2.0, 1.0), mesh(2, 0.9, 33)),
        "hilf3-5": (hilf_chart(HilfParams(a=(1.0, 2.0, 3.0))), mesh(3, 0.4, 5)),
    }[case]
    peak, retained = traced_analyze(chart, grid)
    assert peak <= peak_mb * MB, f"peak {peak / MB:.3f} MB"
    if retained_mb is not None:
        assert retained <= retained_mb * MB, f"retained {retained / MB:.3f} MB"
