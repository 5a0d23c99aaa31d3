"""The symmetries of the theory leave every invariant and verdict in place.

A chart's two maps run on float points and Taylor seeds alike, so each
image below is one composition of them and its jet is exact.

* A change of parameters u = u(w) is a reparametrization: each scalar
  invariant at a surface point is the same, and so is the lift Y.  A
  rotation u = Q w makes the first fundamental form non-diagonal, which
  no catalog chart is at n = 3, so it reaches the off-diagonal steps of
  ``charts._cholesky``; u = w + 0.3 w^2 is a nonlinear one.
* An offset x - t xi, a translation x + t and a boost of the cyclographic
  model are Laguerre transformations: g, b, L, C and B stay, the mean
  radius r of an offset moves by t and the lift (Y, N, eta) moves by one
  Laguerre matrix (T. E. Cecil, *Lie Sphere Geometry*, 2nd ed., 2008).
* A dilation s x with the same normal scales every radius, so rho by s
  and L by s^-2, and keeps b and every verdict.
"""

import numpy as np
import pytest

from lagkit.charts import closed_form
from lagkit.construction import random_orthogonal
from lagkit.families import HilfParams, hilf_chart, torus_chart
from lagkit.spaces import is_laguerre_transform
from lagkit.verifier import run_suite
from tests.conftest import mesh

# A grid of the generic graph of conftest, 5^2 points about (0.2, 0.2).
GENERIC_GRID = mesh(2, 0.1, 5, center=[0.2, 0.2])

# name: (chart, grid of the original parameters)
CASES = {
    "hilf3": lambda: (hilf_chart(HilfParams(a=(1.0, 2.0, 3.0))),
                      mesh(3, 0.3, 4, center=[0.3] * 3)),
    # mixed signs with a shift
    "hilf-mixed2": lambda: (hilf_chart(HilfParams(a=(1.0, -2.0), phi=0.3)),
                            mesh(2, 0.3, 5, center=[0.2] * 2)),
    "hilf-mixed3": lambda: (hilf_chart(HilfParams(a=(1.0, -2.0, 3.0), phi=0.3)),
                            mesh(3, 0.3, 4, center=[0.3] * 3)),
    "torus21": lambda: (torus_chart(2.0, 1.0), mesh(2, 0.5, 7)),
}


def reparametrized(chart, u, name):
    """The chart of x(u(w)): both maps composed with the change of parameters ``u``."""
    return closed_form(lambda W: chart.evaluator(u(W)), lambda W: chart.normal(u(W)),
                       n=chart.n, name=name)


def boosted(chart, s):
    """The image of a chart with a unit normal under the boost of rapidity
    ``s`` in the (x_1, R) plane of the cyclographic model.

    The point sphere (x, 0) goes to (c', R') = ((ch x_1, x_2, ...), sh x_1)
    and the null vector (xi, 1) of the tangent hyperplane to a multiple of
    (xi', 1), with xi' = (ch xi_1 + sh, xi_2, ...) / (sh xi_1 + ch); the
    image point is x' = c' - R' xi'.
    """
    ch, sh = np.cosh(s), np.sinh(s)

    def normal(U):
        xi = chart.normal(U)
        return (np.concatenate([ch * xi[..., :1] + sh, xi[..., 1:]], axis=-1)
                / (sh * xi[..., :1] + ch))

    def x_map(U):
        x = chart.evaluator(U)
        return np.concatenate([ch * x[..., :1], x[..., 1:]], axis=-1) - sh * x[..., :1] * normal(U)

    return closed_form(x_map, normal, n=chart.n, name="boosted")


def assert_same_verdicts(original, image, l_scale=1.0):
    """Both pass, with the same statuses, point errors and classification
    verdicts, and the Laguerre tensor L, the image's times ``l_scale``, has
    the same spectrum at each point."""
    assert image.passed and original.passed
    assert [c.status for c in image.checks] == [c.status for c in original.checks]
    assert ([(e["index"], e["reason"]) for e in image.errors]
            == [(e["index"], e["reason"]) for e in original.errors])
    for key in ("is_isotropic", "is_isoparametric"):
        assert image.classification[key] == original.classification[key]
    # The spectrum, as the frame is ordered by k; the widest passing gap is
    # 1.2e-8, on the rotated hilf-mixed3.
    L, image_L = original.analysis.L_structural, image.analysis.L_structural
    gap = np.max(np.abs(np.linalg.eigvalsh(l_scale * image_L) - np.linalg.eigvalsh(L)))
    assert gap <= 1e-7 * max(1.0, np.max(np.abs(L)))


def sorted_b_gap(a, b):
    # The frame is ordered by k, which a boost or an offset permutes.
    return np.max(np.abs(np.sort(a.b, axis=1) - np.sort(b.b, axis=1)))


@pytest.mark.parametrize("name", list(CASES))
def test_rotated_domain_keeps_every_invariant(name):
    chart, grid = CASES[name]()
    Q = random_orthogonal(chart.n, 31)
    rotated = reparametrized(chart, lambda W: W @ Q.T, "rotated")
    # w = Q^-1 u, as rows: each rotated point is an original surface point.
    original, image = run_suite(chart, grid), run_suite(rotated, grid @ Q)
    assert_same_verdicts(original, image)
    a, b = original.analysis, image.analysis
    assert sorted_b_gap(a, b) <= 1e-12
    assert np.max(np.abs(a.Y - b.Y)) <= 1e-12


@pytest.mark.parametrize("name", list(CASES))
def test_a_nonlinear_reparametrization_keeps_every_invariant(name):
    chart, grid = CASES[name]()
    image_chart = reparametrized(chart, lambda W: W + 0.3 * W**2, "reparametrized")
    # w + 0.3 w^2 = u on each axis.
    original = run_suite(chart, grid)
    image = run_suite(image_chart, (np.sqrt(1.0 + 1.2 * grid) - 1.0) / 0.6)
    assert_same_verdicts(original, image)
    a, b = original.analysis, image.analysis
    assert sorted_b_gap(a, b) <= 1e-12
    assert np.max(np.abs(a.Y - b.Y)) <= 1e-12


@pytest.mark.parametrize("t", [0.3, -0.5])
@pytest.mark.parametrize("name", list(CASES))
def test_an_offset_moves_r_by_t_and_keeps_rho_and_b(name, t):
    chart, grid = CASES[name]()
    offset = closed_form(lambda U: chart.evaluator(U) - t * chart.normal(U), chart.normal,
                         n=chart.n)
    original, image = run_suite(chart, grid), run_suite(offset, grid)
    assert_same_verdicts(original, image)
    a, b = original.analysis, image.analysis
    assert np.max(np.abs(b.r - a.r - t)) <= 1e-12
    assert np.max(np.abs(b.rho / a.rho - 1.0)) <= 1e-12
    assert sorted_b_gap(a, b) <= 1e-12


@pytest.mark.parametrize("name,s", [
    ("hilf3", 0.3), ("hilf3", 3.0), ("torus21", 0.3), ("torus21", 3.0),
    pytest.param("hilf3", 6.0, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "D28: at rapidity 6 hilf's image fails tangent_orthonormality (1.3e-5) and "
        "structure_equation (1.1e-2), and rho^2|L - lambda I| reads 4.69, so it is not "
        "isotropic; residuals on their own scale are ROADMAP item 13"))),
    pytest.param("torus21", 6.0, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "D28: at rapidity 6 the torus's image keeps every verdict, but the spectrum of L "
        "is off by 0.038 against max|L| = 0.25, sorted b by 1.6e-11, the lift fit's "
        "relative residual is 5.1e-10 and T is no Laguerre transformation to 1e-8; "
        "residuals on their own scale are ROADMAP item 13"))),
])
def test_a_boost_keeps_every_verdict_and_moves_the_lift_by_one_matrix(name, s):
    chart, grid = CASES[name]()
    original, image = run_suite(chart, grid), run_suite(boosted(chart, s), grid)
    assert_same_verdicts(original, image)
    a, b = original.analysis, image.analysis
    assert sorted_b_gap(a, b) <= 1e-12
    # Rows (Y, N, eta) of every point, mapped by one T: lift @ T^T = image_lift.
    lift, image_lift = (np.concatenate([f.Y, f.N, f.eta]) for f in (a, b))
    Tt = np.linalg.lstsq(lift, image_lift, rcond=None)[0]
    assert np.linalg.norm(lift @ Tt - image_lift) <= 1e-10 * np.linalg.norm(image_lift)
    assert is_laguerre_transform(Tt.T, 1e-8)


@pytest.mark.parametrize("t", [1e2, pytest.param(1e4, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError, reason=(
        "D26: the lift pairs eta, which carries |x|^2, so at x + 1e4 normal_map_lightlike "
        "reads 7.24 on hilf and 3.25 on the torus; a lift from an origin on the chart is "
        "ROADMAP item 28 stage 2, residuals on their own scale item 13")))])
@pytest.mark.parametrize("name", ["hilf3", "torus21"])
def test_a_translation_keeps_every_verdict(name, t):
    chart, grid = CASES[name]()
    moved = closed_form(lambda U: chart.evaluator(U) + t, chart.normal, n=chart.n)
    original, image = run_suite(chart, grid), run_suite(moved, grid)
    assert_same_verdicts(original, image)
    assert sorted_b_gap(original.analysis, image.analysis) <= 1e-12


def assert_dilation_keeps_every_verdict(chart, grid, s):
    """The image of ``chart`` under x -> s x keeps every verdict and b,
    and scales rho by s and L by s^-2."""
    dilated = closed_form(lambda U: s * chart.evaluator(U), chart.normal, n=chart.n)
    original, image = run_suite(chart, grid), run_suite(dilated, grid)
    # The widest passing spectrum gap of s^2 L is 2.1e-10, on hilf3 at s = 1e2.
    assert_same_verdicts(original, image, l_scale=s * s)
    a, b = original.analysis, image.analysis
    assert sorted_b_gap(a, b) <= 1e-12
    assert np.max(np.abs(b.rho / (s * a.rho) - 1.0)) <= 1e-12


@pytest.mark.parametrize("s", [1e-3, 1e2, pytest.param(1e3, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError, reason=(
        "D26: eta carries |x|^2, which grows as s^2, and at s = 1e3 normal_map_lightlike and "
        "position_normal_orthogonal read 2.1e-6 to 8.4e-4; a lift from an origin on the "
        "chart is ROADMAP item 28 stage 2, residuals on their own scale item 13")))])
@pytest.mark.parametrize("name", list(CASES))
def test_a_dilation_scales_rho_and_l_and_keeps_every_verdict(name, s):
    assert_dilation_keeps_every_verdict(*CASES[name](), s)


@pytest.mark.parametrize("s", [1e2, pytest.param(1e-3, marks=pytest.mark.xfail(
    strict=True, raises=AssertionError, reason=(
        "D13: at s = 1e-3 the generic graph fails n_vector_lightlike (4.9e-4), "
        "l_trace_laplacian (6.7e-3), curvature_antisymmetry (2.5e-5) and "
        "curvature_relation (6.8e-3) on absolute tolerances; residuals on their own "
        "scale are ROADMAP item 13")))])
def test_a_dilated_generic_graph_keeps_every_verdict(generic_chart, s):
    assert_dilation_keeps_every_verdict(generic_chart, GENERIC_GRID, s)
