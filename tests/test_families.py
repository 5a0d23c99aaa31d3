import numpy as np
import pytest

from lagkit.errors import ImmersionError, ParameterError
from lagkit.families import (
    CATALOG,
    HilfParams,
    degenerate_example,
    hilf_chart,
    laguerre_immersion_tau,
    tau_chart,
    torus_chart,
)
from tests.conftest import mesh


def test_params_validation():
    with pytest.raises(ParameterError):
        HilfParams(a=(1.0, 1.0))
    with pytest.raises(ParameterError):
        HilfParams(a=(1.0, 0.0))
    with pytest.raises(ParameterError):
        HilfParams(a=(1.0, 2.0), multiplicities=(1,))
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
    x = deg.evaluator(np.zeros((1, 2)))[0]
    xi = deg.normal(np.zeros((1, 2)))[0]
    assert np.allclose(x, 0.0)
    assert np.allclose(xi, [0.5, 0.0, 0.0, -0.5])


def test_degenerate_constraints_random():
    deg = degenerate_example(HilfParams(a=(1.0, 2.0, 3.0)))
    rng = np.random.default_rng(3)
    U = rng.uniform(-2.0, 2.0, size=(50, 3))
    res = deg.constraint_residuals(U)
    for value in res.values():
        assert value <= 1e-12


def test_degenerate_fundamental_forms():
    params = HilfParams(a=(1.0, 2.0))
    deg = degenerate_example(params)
    U = mesh(2, 0.7, 4)
    I, II = deg.fundamental_forms(U)
    assert np.max(np.abs(I - np.eye(2))) <= 1e-14
    assert np.max(np.abs(II - np.diag([1.0, 2.0]))) <= 1e-14


def test_tau_with_multiplicities():
    params = HilfParams(a=(1.0, 2.0), multiplicities=(2, 1))
    deg = degenerate_example(params)
    euclid = hilf_chart(params)
    grid = mesh(3, 0.4, 4)
    x_img, xi_img = laguerre_immersion_tau(deg.evaluator(grid), deg.normal(grid))
    assert np.max(np.abs(x_img - euclid.evaluator(grid))) <= 1e-12
    assert np.max(np.abs(xi_img - euclid.normal(grid))) <= 1e-12
    I, II = deg.fundamental_forms(grid[:5])
    assert np.max(np.abs(I - np.eye(3))) <= 1e-14
    assert np.max(np.abs(II - np.diag([1.0, 1.0, 2.0]))) <= 1e-14


@pytest.mark.parametrize("a", [(1.0, 2.0), (1.0, 2.0, 3.0)])
def test_tau_reproduces_explicit_family(a):
    params = HilfParams(a=a)
    deg = degenerate_example(params)
    euclid = hilf_chart(params)
    grid = mesh(len(a), 0.4, 5)
    x_img, xi_img = laguerre_immersion_tau(deg.evaluator(grid), deg.normal(grid))
    assert np.max(np.abs(x_img - euclid.evaluator(grid))) <= 1e-12
    assert np.max(np.abs(xi_img - euclid.normal(grid))) <= 1e-12


def test_tau_at_origin():
    deg = degenerate_example(HilfParams(a=(1.0, 2.0)))
    x_img, _ = laguerre_immersion_tau(
        deg.evaluator(np.zeros((1, 2))), deg.normal(np.zeros((1, 2)))
    )
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


def test_torus_parameter_error():
    with pytest.raises(ParameterError):
        torus_chart(1.0, 2.0)


def test_torus_curvatures_distinct_on_domain(torus21, torus_points):
    from lagkit.frames import lift_arrays

    k = lift_arrays(torus21, torus_points[:8]).k
    assert np.min(np.abs(k)) > 0.1
    assert np.min(k[:, 0] - k[:, 1]) > 0.1
