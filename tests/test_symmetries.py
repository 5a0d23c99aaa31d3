"""Reparametrizations of a chart's domain leave every invariant in place.

A rotation u = Q w of the parameters is a reparametrization, so each
scalar invariant at a surface point is the same, and so is the lift Y.
It makes the first fundamental form non-diagonal, which no catalog chart
is at n = 3, so it reaches the off-diagonal steps of ``charts._cholesky``.
"""

import numpy as np
import pytest

from lagkit.charts import closed_form
from lagkit.construction import random_orthogonal
from lagkit.families import HilfParams, hilf_chart, torus_chart
from lagkit.verifier import run_suite
from tests.conftest import mesh


def hilf(a, phi=0.0):
    """The chart of hilf ``a`` with shift ``phi``, and its x as
    ``families.hilf_chart`` writes it."""
    A = np.array(a, dtype=float)

    def x_map(U):
        W = (np.sum(A * U**2, axis=-1) + phi) / (np.sum(A**2 * U**2, axis=-1) + 1.0)
        return np.concatenate([W[..., None], U * (1.0 - W[..., None] * A)], axis=-1)

    return hilf_chart(HilfParams(a=tuple(a), phi=phi)), x_map


def torus_map(U):
    """x of the torus (2, 1), as ``families.torus_chart`` writes it."""
    u, v = U[..., 0], U[..., 1]
    w = 2.0 + np.cos(v)
    return np.stack([w * np.cos(u), w * np.sin(u), np.sin(v)], axis=-1)


# name: (chart, its map, grid of the original parameters)
CASES = {
    "hilf3": lambda: (*hilf((1.0, 2.0, 3.0)), mesh(3, 0.3, 4, center=[0.3] * 3)),
    # mixed signs with a shift
    "hilf-mixed2": lambda: (*hilf((1.0, -2.0), 0.3), mesh(2, 0.3, 5, center=[0.2] * 2)),
    "hilf-mixed3": lambda: (*hilf((1.0, -2.0, 3.0), 0.3), mesh(3, 0.3, 4, center=[0.3] * 3)),
    "torus21": lambda: (torus_chart(2.0, 1.0), torus_map, mesh(2, 0.5, 7)),
}


@pytest.mark.parametrize("name", list(CASES))
def test_rotated_domain_keeps_every_invariant(name):
    chart, x_map, grid = CASES[name]()
    Q = random_orthogonal(chart.n, 31)
    rotated = closed_form(lambda W: x_map(W @ Q.T), lambda W: chart.normal(W @ Q.T),
                          n=chart.n, name="rotated")
    # w = Q^-1 u, as rows: each rotated point is an original surface point.
    original, image = run_suite(chart, grid), run_suite(rotated, grid @ Q)
    assert image.passed and original.passed
    assert [c.status for c in image.checks] == [c.status for c in original.checks]
    assert ([(e["index"], e["reason"]) for e in image.errors]
            == [(e["index"], e["reason"]) for e in original.errors])
    for key in ("is_isotropic", "is_isoparametric"):
        assert image.classification[key] == original.classification[key]
    a, b = original.analysis, image.analysis
    assert np.max(np.abs(np.sort(a.b, axis=1) - np.sort(b.b, axis=1))) <= 1e-12
    assert np.max(np.abs(a.Y - b.Y)) <= 1e-12
