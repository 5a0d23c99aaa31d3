import numpy as np
import pytest

from lagkit import taylor
from lagkit.charts import closed_form
from lagkit.construction import (
    ConstructionConstants,
    b_from_curvatures,
    build_immersion,
    random_orthogonal,
)
from lagkit.errors import ImmersionError, ParameterError
from lagkit.families import (
    CATALOG,
    DegenerateChart,
    HilfParams,
    degenerate_example,
    hilf_chart,
    laguerre_immersion_tau,
    tau_chart,
    torus_chart,
)
from lagkit.verifier import degenerate_model_report, run_suite
from tests.conftest import mesh, unit_sphere


@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_catalog_jet_value_is_the_evaluator(kind):
    # analyze reads the jet alone, so the jet must be of the map the
    # evaluator gives; the degenerate model's suites read its maps on seeds.
    chart = CATALOG[kind]({})
    U = mesh(chart.n, 0.3, 3) + 0.1
    if isinstance(chart, DegenerateChart):
        for f in (chart.x_map, chart.xi_map):
            assert np.allclose(f(taylor.variables(U, 2)).value, f(U), rtol=1e-15, atol=1e-15)
    else:
        assert np.allclose(chart.jet(U, 2).value, chart.evaluator(U), rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize("kind", sorted(CATALOG) + ["constructed"])
def test_a_flat_point_is_a_batch_of_one(kind):
    # A chart's maps cast nothing: a flat array point (n,) gives a point
    # (n+1,), the row of the batch of one.  The degenerate model's
    # Euclidean chart is its image under tau.
    if kind == "constructed":
        chart = build_immersion(ConstructionConstants(b_from_curvatures([1, 2, 3]))).chart
    else:
        chart = CATALOG[kind]({})
        chart = tau_chart(chart) if isinstance(chart, DegenerateChart) else chart
    U = mesh(chart.n, 0.3, 2) + 0.1
    for f in (chart.evaluator, chart.normal):
        got = f(U[-1])
        assert got.shape == (chart.n + 1,) and np.array_equal(got, f(U[-1:])[0])


SEEDED_CHARTS = {
    "hilf": lambda: hilf_chart(HilfParams(a=(1.0, -2.0), multiplicities=(2, 1), phi=0.3)),
    "torus": lambda: torus_chart(2.0, 1.0),
    "tau": lambda: tau_chart(degenerate_example(HilfParams(a=(1.0, 2.0)))),
    "constructed": lambda: build_immersion(ConstructionConstants(
        b_from_curvatures([1, 2, 3]), cmat=random_orthogonal(3, 7))).chart,
}


@pytest.mark.parametrize("kind", list(SEEDED_CHARTS))
def test_chart_maps_run_on_taylor_seeds(kind):
    # A chart holds its two maps themselves, each written once for float
    # points and Taylor seeds: the evaluator's polynomial is the jet, and
    # the normal's is a unit field to degree 5 whose value is the float one.
    chart = SEEDED_CHARTS[kind]()
    rebuilt = closed_form(chart.evaluator, chart.normal, n=chart.n)
    assert rebuilt.evaluator is chart.evaluator and rebuilt.normal is chart.normal
    U = mesh(chart.n, 0.3, 3) + 0.1
    V = taylor.variables(U, 5)
    assert np.array_equal(chart.evaluator(V).c, chart.jet(U, 5).c)
    xi = chart.normal(V)
    assert np.max(np.abs(xi.value - chart.normal(U))) <= 1e-15
    assert np.max(np.abs((np.sum(xi * xi, axis=-1) - 1.0).c)) <= 1e-11


def test_params_validation():
    with pytest.raises(ParameterError):
        HilfParams(a=(1.0, 1.0))
    with pytest.raises(ParameterError):
        HilfParams(a=(1.0, 0.0))
    with pytest.raises(ParameterError):
        HilfParams(a=(1.0, 2.0), multiplicities=(1,))
    # One constant gives a totally umbilic hypersurface, which the theory
    # excludes; this one (phi one ulp from 1/a) has a Jacobian of pure
    # rounding that the rank test passes as regular.
    with pytest.raises(ParameterError, match="two distinct constants"):
        HilfParams(a=(-0.5,), multiplicities=(2,), phi=-1.9999999999999998)
    for kind in ("hilf", "degenerate-hilf"):
        with pytest.raises(ParameterError, match="two distinct constants"):
            CATALOG[kind]({"a": [1.0], "multiplicities": [3]})
    p = HilfParams(a=(1.0, 2.0), multiplicities=(2, 1))
    assert p.n == 3
    assert np.allclose(p.coeffs, [1.0, 1.0, 2.0])


@pytest.mark.parametrize("kind,params,unknown", [
    ("hilf", {"a": [1, 2], "ph": 0.1}, "'ph'"),
    ("degenerate-hilf", {"a": [1, 2], "phi": 0.0}, "'phi'"),
    ("torus", {"R_major": 5, "r_tube": 1}, "'R_major'"),
])
def test_catalog_rejects_unknown_parameters(kind, params, unknown):
    with pytest.raises(ParameterError, match=unknown):
        CATALOG[kind](params)


def test_hilf_hand_substitution(hilf2):
    x = hilf2.evaluator(np.array([[1.0, 0.0]]))[0]
    xi = hilf2.normal(np.array([[1.0, 0.0]]))[0]
    assert np.allclose(x, [0.5, 0.5, 0.0], atol=1e-15)
    assert np.allclose(xi, [0.0, 1.0, 0.0], atol=1e-15)


def test_hilf_normal_is_unit(hilf3):
    rng = np.random.default_rng(0)
    U = rng.uniform(-2.0, 2.0, size=(200, 3))
    xi = hilf3.normal(U)
    assert np.max(np.abs(np.linalg.norm(xi, axis=1) - 1.0)) <= 1e-12


def test_hilf_phi_keeps_normal_formula():
    chart = hilf_chart(HilfParams(a=(1.0, 2.0), phi=0.7))
    rng = np.random.default_rng(1)
    U = rng.uniform(-1.0, 1.0, size=(50, 2))
    from lagkit.charts import jet_arrays

    _, dx, _, xi = jet_arrays(chart, U)
    assert np.max(np.abs(np.einsum("mia,ma->mi", dx, xi))) <= 1e-12


def test_degenerate_at_origin():
    deg = degenerate_example(HilfParams(a=(1.0, 2.0)))
    x = deg.x_map(np.zeros((1, 2)))[0]
    xi = deg.xi_map(np.zeros((1, 2)))[0]
    assert np.allclose(x, 0.0)
    assert np.allclose(xi, [0.5, 0.0, 0.0, -0.5])


def test_degenerate_constraints_random():
    deg = degenerate_example(HilfParams(a=(1.0, 2.0, 3.0)))
    rng = np.random.default_rng(3)
    U = rng.uniform(-2.0, 2.0, size=(50, 3))
    residual = {c.name: c.residual for c in degenerate_model_report(deg, U).checks}
    for name in ("position_in_hyperplane", "normal_lightlike", "normal_nu_pairing",
                 "normal_tangency"):
        assert residual[name] <= 1e-12


def forms_residuals(deg, grid):
    """Worst |I - 1| and |II - diag(a)| of the model's report on ``grid``."""
    residual = {c.name: c.residual for c in degenerate_model_report(deg, grid).checks}
    return residual["first_form_euclidean"], residual["second_form_diagonal"]


def test_degenerate_fundamental_forms():
    deg = degenerate_example(HilfParams(a=(1.0, 2.0)))
    assert max(forms_residuals(deg, mesh(2, 0.7, 4))) <= 1e-14


def test_tau_with_multiplicities():
    params = HilfParams(a=(1.0, 2.0), multiplicities=(2, 1))
    deg = degenerate_example(params)
    euclid = hilf_chart(params)
    grid = mesh(3, 0.4, 4)
    x_img, xi_img = laguerre_immersion_tau(deg.x_map(grid), deg.xi_map(grid))
    assert np.max(np.abs(x_img - euclid.evaluator(grid))) <= 1e-12
    assert np.max(np.abs(xi_img - euclid.normal(grid))) <= 1e-12
    assert max(forms_residuals(deg, grid[:5])) <= 1e-14


@pytest.mark.parametrize("a", [(1.0, 2.0), (1.0, 2.0, 3.0)])
def test_tau_reproduces_explicit_family(a):
    params = HilfParams(a=a)
    deg = degenerate_example(params)
    euclid = hilf_chart(params)
    grid = mesh(len(a), 0.4, 5)
    x_img, xi_img = laguerre_immersion_tau(deg.x_map(grid), deg.xi_map(grid))
    assert np.max(np.abs(x_img - euclid.evaluator(grid))) <= 1e-12
    assert np.max(np.abs(xi_img - euclid.normal(grid))) <= 1e-12


def test_tau_at_origin():
    deg = degenerate_example(HilfParams(a=(1.0, 2.0)))
    x_img, _ = laguerre_immersion_tau(deg.x_map(np.zeros((1, 2))), deg.xi_map(np.zeros((1, 2))))
    assert np.allclose(x_img, 0.0)


def test_tau_rejects_vanishing_component():
    x = np.array([[0.0, 0.1, 0.2, 0.0]])
    xi = np.array([[1.0, 0.3, 0.4, 0.0]])  # last component is xi_1 = 0
    with pytest.raises(ImmersionError):
        laguerre_immersion_tau(x, xi)


def test_tau_chart_matches_values():
    params = HilfParams(a=(1.0, 2.0))
    chart = tau_chart(degenerate_example(params))
    euclid = hilf_chart(params)
    grid = mesh(2, 0.4, 5)
    assert np.max(np.abs(chart.evaluator(grid) - euclid.evaluator(grid))) <= 1e-12
    assert np.max(np.abs(chart.normal(grid) - euclid.normal(grid))) <= 1e-12


@pytest.mark.parametrize("a,points", [((1.0, 2.0), 5), ((1.0, 2.0, 3.0), 3)],
                         ids=["a12-5x5", "a123-3x3x3"])
def test_tau_chart_passes_suite(a, points):
    # Its jets are the Taylor polynomials of the composed map, so the image
    # of the degenerate model passes as the explicit family does.
    chart = tau_chart(degenerate_example(HilfParams(a=a)))
    report = run_suite(chart, mesh(len(a), 0.3, points))
    assert report.passed and not report.errors
    assert report.classification["is_isotropic"]


@pytest.mark.parametrize("a", [(1.0, 2.0), (1.0, 2.0, 3.0)], ids=["a12", "a123"])
def test_tau_chart_jet_is_the_family_jet(a):
    # tau carries the degenerate model onto the explicit family, so the
    # two charts have the same Taylor polynomial, coefficient by coefficient.
    params = HilfParams(a=a)
    grid = mesh(len(a), 0.3, 3, center=[0.05] * len(a))
    got = tau_chart(degenerate_example(params)).jet(grid, 5).c
    want = hilf_chart(params).jet(grid, 5).c
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", ["sphere", "tau"])
def test_order_zero_jet_is_the_evaluator(kind):
    if kind == "sphere":
        chart = unit_sphere()
    else:
        chart = tau_chart(degenerate_example(HilfParams(a=(1.0, 2.0))))
    grid = mesh(2, 0.3, 5, center=[0.1, -0.05])
    x = chart.evaluator(grid)
    # a quotient's value is a0 * (1/b0) in Taylor arithmetic: within 2 ulp
    bound = 4.0 * np.finfo(float).eps * np.max(np.abs(x))
    for degree in (1, 3):
        assert np.max(np.abs(chart.jet(grid, degree).value - x)) <= bound


def test_torus_parameter_error():
    with pytest.raises(ParameterError):
        torus_chart(1.0, 2.0)


def test_torus_curvatures_distinct_on_domain(torus21, torus_points):
    from lagkit.invariants import analyze

    k = analyze(torus21, torus_points[:8]).k
    assert np.min(np.abs(k)) > 0.1
    assert np.min(k[:, 0] - k[:, 1]) > 0.1
