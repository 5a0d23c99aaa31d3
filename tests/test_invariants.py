import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from lagkit import charts, invariants, taylor
from lagkit.charts import IRREGULAR, jet_arrays, regularity
from lagkit.errors import InputError
from lagkit.families import HilfParams, hilf_chart, torus_chart
from lagkit.fields import christoffels, frame_components
from lagkit.invariants import Analysis, _b_tensor, analyze, classify_analysis, frame_coefficients
from lagkit.verifier import CHECKS, run_suite
from tests import central
from tests.conftest import count_rows, graph_chart, mesh, unit_sphere


def expected_b(curvatures):
    """Independent rational-arithmetic oracle for the b constants."""
    radii = [Fraction(1, 1) / Fraction(str(a)) for a in curvatures]
    mean = sum(radii, Fraction(0)) / len(radii)
    diffs = [mean - r for r in radii]
    rho = float(sum(d * d for d in diffs)) ** 0.5
    return np.sort([float(d) / rho for d in diffs])


# frozen from the oracle above: (-7, 2, 5)/sqrt(78)
B123 = np.array([-0.7925939239012169, 0.2264554068289191, 0.5661385170722978])


def assert_b_matches(b_hat, expected, tol):
    direct = np.max(np.abs(np.sort(b_hat) - expected))
    flipped = np.max(np.abs(np.sort(-np.asarray(b_hat)) - expected))
    assert min(direct, flipped) <= tol


def test_expected_b_oracle_frozen():
    assert np.max(np.abs(expected_b([1, 2, 3]) - B123)) <= 1e-15


@pytest.fixture(scope="module")
def hilf3_analysis(hilf3, grid3):
    return analyze(hilf3, grid3)


def test_closed_form_b_values(hilf3_analysis):
    for b_row in hilf3_analysis.b:
        assert_b_matches(b_row, B123, 1e-9)
    sums = hilf3_analysis.b.sum(axis=1)
    squares = (hilf3_analysis.b**2).sum(axis=1)
    assert np.max(np.abs(sums)) <= 1e-12
    assert np.max(np.abs(squares - 1.0)) <= 1e-12


def test_laguerre_form_vanishes_on_family(hilf3_analysis):
    assert np.max(np.abs(hilf3_analysis.C_closed)) <= 1e-6


def test_structural_tensor_vanishes_on_family(hilf3_analysis):
    assert np.max(np.abs(hilf3_analysis.L_structural)) <= 1e-4


def test_structural_b_matches_diag_b(hilf3_analysis):
    n = 3
    diag_b = np.einsum("mi,ij->mij", hilf3_analysis.b, np.eye(n))
    assert np.max(np.abs(hilf3_analysis.B_structural - diag_b)) <= 1e-5


def test_contracted_covariant_identity(hilf3_analysis):
    n = 3
    sums = np.einsum("miji->mj", hilf3_analysis.cov_B)
    assert np.max(np.abs(sums - (n - 1) * hilf3_analysis.C_closed)) <= 1e-4


def test_torus_two_curvature_constants(torus21, torus_points):
    a = analyze(torus21, torus_points)
    target = np.sqrt(0.5)
    for b_row in a.b:
        assert_b_matches(b_row, np.array([-target, target]), 1e-6)


def test_torus_laguerre_form_cancels(torus21, torus_points):
    # e_v(r) = (r - r_tube) e_v(log rho) identically on a torus of
    # revolution, so the closed-form C vanishes even though r and rho
    # both vary along the tube.
    a = analyze(torus21, torus_points)
    assert np.max(np.abs(a.C_closed)) <= 1e-9
    assert np.max(np.abs(a.C_structural)) <= 1e-5


def test_cross_oracle_agreement_generic(generic_chart, generic_points):
    """Closed forms and structural projections agree on a generic chart."""
    a = analyze(generic_chart, generic_points)
    scale_l = max(1.0, np.max(np.abs(a.L_structural)))
    assert np.max(np.abs(a.L_closed - a.L_structural)) / scale_l <= 1e-3
    scale_c = max(1.0, np.max(np.abs(a.C_closed)))
    assert np.max(np.abs(a.C_closed - a.C_structural)) / scale_c <= 1e-3
    diag_b = np.einsum("mi,ij->mij", a.b, np.eye(2))
    assert np.max(np.abs(a.B_structural - diag_b)) <= 1e-5


def test_structure_equation_residual(hilf3_analysis):
    row = next(check for check in CHECKS if check.name == "structure_equation")
    assert np.max(np.abs(row.residual(hilf3_analysis, None))) <= 1e-3


def frame_connection(w, dw, gamma, g):
    """Frame connection coefficients <nabla_{E_k} E_i, E_l> -> (m, k, i, l).

    ``dw[m, a, i, b]`` holds d_a of the frame coefficient w[i, b].  These
    equal the structure-equation functions Gamma^l_ik.  ``analyze`` avoids
    this route, as eigenvector derivatives are ill-posed where curvatures
    repeat.
    """
    # nabla_{E_k} E_i = w_k^a (d_a w_i^b + w_i^c Gamma^b_ac) d_b
    cov = np.einsum("mka,maib->mkib", w, dw) + np.einsum(
        "mka,mic,mbac->mkib", w, w, gamma
    )
    return np.einsum("mkib,mbc,mlc->mkil", cov, g, w)


def pointwise_lift(chart, U):
    """(w, b, g, II, III, r, rho) at U from ``charts.regularity``: the frame
    coefficients, the Laguerre curvatures, g = rho^2 III, the forms and
    the radii r and rho, each from the values of one jet."""
    _, dx, ddx, xi = jet_arrays(chart, U)
    II, III, r, rho, k, e, _ = regularity(dx, ddx, xi)
    r_i = 1.0 / k
    b = (r[:, None] - r_i) / rho[:, None]
    g = rho[:, None, None] ** 2 * III
    return frame_coefficients(r_i, rho, e), b, g, II, III, r, rho


def frame_route_cov_b(chart, points):
    """B_ij,k by differentiating the eigenvector frame and b, then
    ``frame_connection``: the reference route, valid where the principal
    curvatures are distinct."""
    m, n = points.shape
    w, b, g = pointwise_lift(chart, points)[:3]

    def pack(U):
        return np.concatenate([t.reshape(len(U), -1) for t in pointwise_lift(chart, U)[:3]],
                              axis=1)

    d = central.grad(pack, points, 1e-4)
    dw = d[..., : n * n].reshape(m, n, n, n)
    db = d[..., n * n : n * n + n]
    dg = d[..., n * n + n :].reshape(m, n, n, n)
    conn = frame_connection(w, dw, christoffels(np.linalg.inv(g), dg), g)
    E_b = np.einsum("mka,mai->mki", w, db)
    # B_ij,k = E_k(b_i) delta_ij - Gamma^j_ik b_j - Gamma^i_jk b_i
    return (
        np.einsum("mki,ij->mijk", E_b, np.eye(n))
        - np.einsum("mkij,mj->mijk", conn, b)
        - np.einsum("mkji,mi->mijk", conn, b)
    )


@pytest.mark.parametrize("case", ["hilf3", "generic"])
def test_covariant_b_matches_frame_route(case, hilf3, grid3, generic_chart, generic_points):
    chart, points = (hilf3, grid3) if case == "hilf3" else (generic_chart, generic_points)
    a = analyze(chart, points)
    n = chart.n
    w, b, _, II, III, r, rho = pointwise_lift(chart, points)
    on_frame = np.einsum("mia,mab,mjb->mij", w, _b_tensor(r, rho, III, II), w)
    assert np.max(np.abs(on_frame - np.einsum("mi,ij->mij", b, np.eye(n)))) <= 1e-12
    reference = frame_route_cov_b(chart, points)
    scale = max(1.0, np.max(np.abs(reference)))
    assert np.max(np.abs(a.cov_B - reference)) / scale <= 1e-6


def test_flat_invariant_metric(hilf3_analysis):
    r = hilf3_analysis.riemann_frame
    assert np.max(np.abs(r)) <= 1e-4
    assert np.max(np.abs(r + np.swapaxes(r, 1, 2))) <= 1e-10
    assert np.max(np.abs(r + np.swapaxes(r, 3, 4))) <= 1e-10


def test_curvature_relation_generic(generic_chart, generic_points):
    a = analyze(generic_chart, generic_points)
    L = a.L_structural
    eye = np.eye(2)
    rhs = (
        np.einsum("mjk,il->mijkl", L, eye)
        + np.einsum("mil,jk->mijkl", L, eye)
        - np.einsum("mik,jl->mijkl", L, eye)
        - np.einsum("mjl,ik->mijkl", L, eye)
    )
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(a.riemann_frame - rhs)) / scale <= 1e-3


def test_classify_explicit_family(hilf3, grid3):
    cls = classify_analysis(analyze(hilf3, grid3))
    assert cls.is_isotropic
    assert cls.is_isoparametric
    assert abs(cls.lambda_estimate) <= 1e-5
    assert_b_matches(cls.b_hat, B123, 1e-6)
    assert cls.alpha is not None and cls.alpha_spread <= 1e-5


def test_classification_dict_holds_python_floats(hilf3, grid3):
    # The report is written as JSON with no fallback for numpy scalars.
    d = classify_analysis(analyze(hilf3, grid3)).to_dict()
    assert (len(d["alpha"]), len(d["b_hat"])) == (7, 3)
    assert all(type(v) is float for v in d["alpha"] + d["b_hat"])


def test_classify_torus(torus21, torus_points):
    cls = classify_analysis(analyze(torus21, torus_points))
    assert not cls.is_isotropic          # L has eigenvalues +-1/4
    assert cls.is_isoparametric          # C = 0 and constant b
    assert cls.b_spread <= 1e-9
    assert cls.max_abs_rho_c <= 1e-9


def test_classify_generic_chart_negative(generic_chart, generic_points):
    cls = classify_analysis(analyze(generic_chart, generic_points))
    assert not cls.is_isotropic
    assert not cls.is_isoparametric


def test_classify_needs_two_points(hilf3):
    with pytest.raises(InputError):
        classify_analysis(analyze(hilf3, np.zeros((1, 3))))


def test_classify_sphere_umbilic():
    a = analyze(unit_sphere(), mesh(2, 0.1, 3))
    assert a.reason.tolist() == [IRREGULAR[1]] * 9 and len(a.grid) == 0
    with pytest.raises(InputError, match="two grid points"):
        classify_analysis(a)


def test_identity_suite_explicit_family(hilf3, grid3):
    report = run_suite(hilf3, grid3)
    by_name = {c.name: c for c in report.checks}
    assert by_name["b_trace_zero"].residual <= 1e-9
    assert by_name["b_square_one"].residual <= 1e-9
    assert by_name["l_trace_laplacian"].residual <= 1e-4
    assert by_name["covariant_b_square"].residual <= 1e-4
    assert by_name["log_rho_laplacian"].residual <= 1e-5
    assert by_name["log_rho_trace_identity"].residual <= 1e-5
    assert by_name["isoparametric_curvature_sum"].residual <= 1e-4
    assert by_name["rho_square_bound"].status == "skip"
    assert "vacuous" in by_name["rho_square_bound"].note
    assert report.classification["lambda_estimate"] >= -1e-6


def test_identity_suite_skips_on_torus(torus21, torus_points):
    report = run_suite(torus21, torus_points)
    by_name = {c.name: c for c in report.checks}
    assert by_name["covariant_b_square"].status == "skip"
    assert by_name["isoparametric_curvature_sum"].status == "skip"
    assert "n >= 3" in by_name["isoparametric_curvature_sum"].note


def test_per_point_operations(hilf3):
    a = analyze(hilf3, np.array([[0.1, -0.2, 0.15]]))
    assert np.max(np.abs(a.C_closed[0])) <= 1e-6
    assert np.max(np.abs(a.L_structural[0])) <= 1e-4
    assert np.max(np.abs(np.diag(a.b[0]) - a.B_structural[0])) <= 1e-5
    assert abs(np.trace(a.L_structural[0]) / 3) <= 1e-4
    assert a.L_closed[0].shape == (3, 3)


def test_eigh_runs_on_grid_rows_only(monkeypatch, hilf3):
    # The verify-hilf3 inputs: 5^3 grid points.  The partials come from one
    # Taylor jet of the grid, so the regularity pass and the lift run on
    # the grid rows only, and the principal decomposition once on each.
    eigh_rows = count_rows(monkeypatch, charts.principal_arrays, 0)
    lift_rows = count_rows(monkeypatch, charts.regularity, 0)
    analyze(hilf3, mesh(3, 0.4, 5))
    assert lift_rows == [125]
    assert eigh_rows == [125]


def near_umbilic():
    # Relative curvature spread 5e-7, above UMBILIC_TOL: every point is regular.
    a1, a2 = 0.7, 0.7 * (1.0 + 5e-7)
    return graph_chart(lambda U: a1 * U[..., 0] ** 2 + a2 * U[..., 1] ** 2), mesh(2, 1e-4, 5)


def hilf12_rank_deficient():
    return hilf_chart(HilfParams(a=(1.0, 2.0))), mesh(2, 1.5, 7)


@pytest.mark.parametrize("case, rows", [(near_umbilic, 25), (hilf12_rank_deficient, 35)])
def test_eigh_runs_once_per_full_rank_point(monkeypatch, case, rows):
    # The decomposition that decides regularity also gives the frame, so
    # ``principal_arrays`` takes each point that is not rank deficient once.
    chart, grid = case()
    eigh_rows = count_rows(monkeypatch, charts.principal_arrays, 0)
    a = analyze(chart, grid)
    assert eigh_rows == [rows]
    assert np.sum(a.reason != IRREGULAR[0]) == rows


def test_irregular_points_leave_the_regular_rows_unchanged():
    # hilf (1,2) on 7^2 at half-width 1.5 meets its rank-deficient set: every
    # point gets a reason, and the fields are those of the regular rows alone.
    chart = hilf_chart(HilfParams(a=(1.0, 2.0)))
    grid = mesh(2, 1.5, 7)
    a = analyze(chart, grid)
    regular = a.reason == ""
    assert a.reason.shape == (49,) and set(a.reason) == {"", IRREGULAR[0]}
    assert 2 <= np.sum(regular) < 49
    alone = analyze(chart, grid[regular])
    assert np.all(alone.reason == "") and np.array_equal(a.grid, grid[regular])
    for field in dataclasses.fields(Analysis):
        got, want = getattr(a, field.name), getattr(alone, field.name)
        if field.name != "reason":
            assert np.array_equal(got, want), field.name
    assert np.array_equal(a.b, alone.b) and np.array_equal(a.r_i, alone.r_i)


ALONE = {
    "hilf2-7-irregular": lambda: (hilf_chart(HilfParams(a=(1.0, 2.0))), mesh(2, 1.5, 7)),
    "hilf3-5": lambda: (hilf_chart(HilfParams(a=(1.0, 2.0, 3.0))), mesh(3, 0.4, 5)),
    "torus-9": lambda: (torus_chart(2.0, 1.0), mesh(2, 0.9, 9)),
}


@pytest.mark.parametrize("case", sorted(ALONE))
def test_a_point_alone_has_the_bits_of_its_row(case):
    # A batch of one regular row has no memory layout, in which einsum would
    # sum its products in another order; every third row, regular or not.
    chart, grid = ALONE[case]()
    whole = analyze(chart, grid)
    regular = np.flatnonzero(whole.reason == "")
    for row in range(0, len(grid), 3):
        alone = analyze(chart, grid[[row]])
        assert alone.reason.tolist() == [whole.reason[row]]
        for field in dataclasses.fields(Analysis):
            got, want = getattr(alone, field.name), getattr(whole, field.name)
            if field.name != "reason":
                want = want[regular == row]
                assert got.dtype == want.dtype and np.array_equal(got, want), (row, field.name)


def test_an_empty_grid_is_an_empty_analysis(hilf2):
    a = analyze(hilf2, np.empty((0, 2)))
    assert a.grid.shape == (0, 2)
    for field in dataclasses.fields(Analysis):
        assert len(getattr(a, field.name)) == 0, field.name


def test_the_analysis_holds_its_own_grid(hilf3):
    grid = mesh(3, 0.4, 5)
    assert invariants._row_blocks(3, len(grid)) == 1
    a = analyze(hilf3, grid)
    assert np.all(a.reason == "") and not np.shares_memory(a.grid, grid)


TAIL_CASES = {
    "torus-33": lambda: (torus_chart(2.0, 1.0), mesh(2, 0.9, 33)),
    "hilf3-5": lambda: (hilf_chart(HilfParams(a=(1.0, 2.0, 3.0))), mesh(3, 0.4, 5)),
}


@pytest.mark.parametrize("case", sorted(TAIL_CASES))
def test_analysis_arrays_are_point_innermost(case):
    # The frame and the lift arrays the projection reads are laid out as the
    # Taylor partials, so every field of the Analysis but the lift, which
    # keeps the chart jet's C order, has the point axis innermost in memory.
    a = analyze(*TAIL_CASES[case]())
    lift = ("x", "r", "rho", "Y", "eta", "k")
    arrays = {f.name: getattr(a, f.name) for f in dataclasses.fields(Analysis)
              if f.name not in ("grid", "reason") + lift}
    for name, array in arrays.items():
        assert array.strides[0] == array.itemsize, name


@pytest.mark.parametrize("case", sorted(TAIL_CASES))
def test_analyze_inverts_four_matrix_batches(case, monkeypatch):
    # A_0^-1 of I, II and g in ``taylor.inv``, and III^-1 once for the
    # Christoffel symbols of III and of g, the III Laplacian and |grad|^2.
    chart, grid = TAIL_CASES[case]()
    shapes, inv = [], np.linalg.inv

    def counted(A):
        shapes.append(A.shape)
        return inv(A)

    monkeypatch.setattr(np.linalg, "inv", counted)
    analyze(chart, grid)
    assert shapes == [(len(grid), chart.n, chart.n)] * 4


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_frame_projections_match_einsum(n):
    # One frame index at a time against the one-call einsum, on arrays laid
    # out as analyze lays them out.
    rng = np.random.default_rng(n)
    m = 17
    w = taylor.batch_inner(rng.standard_normal((m, n, n)))
    cov = taylor.batch_inner(rng.standard_normal((m, n, n, n)))          # [m, c, a, b]
    riemann = taylor.batch_inner(rng.standard_normal((m,) + (n,) * 4))
    pairs = [
        (frame_components(np.moveaxis(cov, 1, -1), w),
         np.einsum("mia,mjb,mkc,mcab->mijk", w, w, w, cov, optimize=True)),
        (frame_components(riemann, w),
         np.einsum("mia,mjb,mkc,mld,mabcd->mijkl", w, w, w, w, riemann, optimize=True)),
    ]
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
