"""Seeded property test: the suite never raises on the explicit family.

Hilf charts with n = 2..4 split into two or more distinct constants of
any multiplicities (one constant gives a totally umbilic hypersurface,
which the theory excludes), constants of magnitude 0.5-5, either sign
and pairwise gaps of at least 0.5, a shift phi in [-2, 2], and 3^n grids
centred anywhere in [-1.5, 1.5]^n with half-widths 0.05-0.8: grids may
meet the singular set of the family, where the Jacobian drops rank.
Every irregular grid point must become a per-point error, and the checks
run, and pass, on the rest.
"""

from itertools import combinations

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lagkit.families import HilfParams, hilf_chart
from lagkit.verifier import run_suite
from tests.conftest import mesh


@st.composite
def hilf_grids(draw):
    n = draw(st.integers(2, 4))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1)))
    multiplicities = tuple(np.diff([0, *cuts, n]).tolist())
    a = [draw(st.floats(0.5, 5.0)) * draw(st.sampled_from((-1.0, 1.0)))
         for _ in multiplicities]
    assume(all(abs(p - q) >= 0.5 for p, q in combinations(a, 2)))
    phi = draw(st.floats(-2.0, 2.0))
    center = [draw(st.floats(-1.5, 1.5)) for _ in range(n)]
    half_width = draw(st.floats(0.05, 0.8))
    return HilfParams(a=tuple(a), multiplicities=multiplicities, phi=phi), center, half_width


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(hilf_grids())
def test_suite_never_raises(case):
    params, center, half_width = case
    grid = mesh(params.n, half_width, 3, center=center)
    report = run_suite(hilf_chart(params), grid)
    regular = len(grid) - len(report.errors)
    assert all(e["reason"] for e in report.errors)
    if regular >= 2:
        assert report.analysis.grid.shape[0] == regular
        assert report.passed, [(c.name, c.residual) for c in report.checks if c.status == "fail"]
