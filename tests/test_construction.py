import dataclasses

import numpy as np
import pytest

from lagkit import taylor
from lagkit.construction import (
    ConstructionConstants,
    b_from_curvatures,
    build_immersion,
    frobenius_report,
    random_orthogonal,
    validate_constants,
)
from lagkit.errors import ParameterError
from lagkit.families import HilfParams, hilf_chart
from lagkit.invariants import analyze, classify_analysis
from lagkit.spaces import dot, laguerre_signs
from lagkit.verifier import construct_suite
from tests import central
from tests.conftest import mesh
from tests.test_mutants import CONSTANTS

B123 = b_from_curvatures([1, 2, 3])


def test_b_from_curvatures_exact():
    assert abs(B123.sum()) <= 1e-15
    assert abs((B123**2).sum() - 1.0) <= 1e-14
    with pytest.raises(ParameterError):
        b_from_curvatures([1, 1, 2])
    with pytest.raises(ParameterError):
        b_from_curvatures([0, 1, 2])


def test_validate_good_constants():
    assert validate_constants(ConstructionConstants(B123)) == ()


def test_validate_scaled_row_fails():
    cmat = np.eye(3)
    cmat[1] *= 2.0
    failures = validate_constants(ConstructionConstants(B123, cmat=cmat))
    assert any("orthogonal" in msg for msg in failures)


@pytest.mark.parametrize("b", [[], [1.0]], ids=["empty", "one"])
def test_fewer_than_two_constants_are_refused(b):
    # The first condition, before any reduction over the b_i; the JSON form
    # refuses them too, so ``construct --constants`` exits 2.
    assert validate_constants(ConstructionConstants(np.array(b))) == (
        f"need n >= 2, got n = {len(b)}",)
    with pytest.raises(ParameterError, match="need n >= 2"):
        ConstructionConstants.from_json_dict({"b": b, "cmat": np.eye(len(b)).tolist()})


def test_validate_wrong_matrix_shape_is_listed():
    # Every other condition reads an n x n matrix, so a 2 x 2 one for n = 3
    # is the one failure listed, not a numpy broadcast error.
    failures = validate_constants(ConstructionConstants(B123, cmat=np.eye(2)))
    assert failures == ("matrix shape (2, 2) != (3, 3)",)
    with pytest.raises(ParameterError, match=r"matrix shape \(2, 2\)"):
        build_immersion(ConstructionConstants(B123, cmat=np.eye(2)))


def test_validate_repeated_b_fails():
    bad = np.array([0.5, 0.5, -1.0])
    bad = bad / np.sqrt(np.sum(bad**2))
    failures = validate_constants(ConstructionConstants(bad))
    assert any("distinct" in msg for msg in failures)


@pytest.mark.parametrize("name, value", [
    ("b", [np.nan, 0.5, -0.5]),
    ("cmat", np.diag([1.0, np.nan, 1.0])),
    ("beta1", [np.inf, 0.0, 0.0]),
])
def test_validate_rejects_non_finite_constants(name, value):
    constants = ConstructionConstants(**{"b": B123, name: np.asarray(value)})
    assert "constants must be finite" in validate_constants(constants)
    with pytest.raises(ParameterError, match="constants must be finite"):
        build_immersion(constants)


def test_random_orthogonal_deterministic():
    Q1 = random_orthogonal(3, seed=1)
    Q2 = random_orthogonal(3, seed=1)
    assert np.array_equal(Q1, Q2)
    assert np.max(np.abs(Q1.T @ Q1 - np.eye(3))) <= 1e-13


def test_random_orthogonal_diagonal_floor():
    for seed in range(25):
        Q = random_orthogonal(2, seed)
        assert np.min(np.abs(np.diag(Q))) >= 1e-3


@pytest.fixture(scope="module")
def identity_constants():
    return ConstructionConstants(B123)


@pytest.fixture(scope="module")
def seeded_constants():
    return ConstructionConstants(
        B123,
        cmat=random_orthogonal(3, seed=1),
        beta1=np.array([0.3, -0.1, 0.2]),
        beta3=np.array([0.1, 0.05, -0.2]),
        gamma1=np.array([0.01, 0.0, -0.02]),
    )


def test_position_at_origin(identity_constants):
    Y = build_immersion(identity_constants).position(np.zeros((1, 3)))[0]
    assert Y[2] == -0.5
    assert Y[-1] == 0.5
    assert np.allclose(Y[3:-1], 0.0)


def test_position_lightlike_random(seeded_constants):
    Y = build_immersion(seeded_constants).position
    rng = np.random.default_rng(5)
    V = rng.uniform(-1.0, 1.0, size=(100, 3))
    signs = laguerre_signs(3)
    vals = Y(V)
    assert np.max(np.abs(dot(signs, vals, vals))) <= 1e-12
    assert np.max(np.abs(vals[:, -1] - vals[:, 2] - 1.0)) <= 1e-12


def test_position_tangents_diagonal(seeded_constants):
    Y = build_immersion(seeded_constants).position
    signs = laguerre_signs(3)
    grid = mesh(3, 0.5, 3)
    dY = central.grad(Y, grid, 1e-4)
    gram = np.einsum("mal,l,mbl->mab", dY, signs, dY)
    off = gram.copy()
    idx = np.arange(3)
    off[:, idx, idx] = 0.0
    assert np.max(np.abs(off)) <= 1e-10
    # in these coordinates the diagonal is exactly 2
    assert np.max(np.abs(np.diagonal(gram, axis1=1, axis2=2) - 2.0)) <= 1e-10


def test_normal_map_constraints(seeded_constants):
    maps = build_immersion(seeded_constants)
    eta, Y = maps.normal_map, maps.position
    signs = laguerre_signs(3)
    rng = np.random.default_rng(6)
    V = rng.uniform(-1.0, 1.0, size=(100, 3))
    e = eta(V)
    assert np.max(np.abs(e[:, 0] + e[:, 1] - 1.0)) <= 1e-15
    assert np.max(np.abs(dot(signs, e, e))) <= 1e-12
    assert np.max(np.abs(dot(signs, e, Y(V)))) <= 1e-10
    N = np.zeros(7)
    N[2] = N[-1] = 1.0
    assert np.max(np.abs(dot(signs, e, np.broadcast_to(N, e.shape)))) <= 1e-12


def test_normal_map_derivative_relation(seeded_constants):
    maps = build_immersion(seeded_constants)
    eta, Y = maps.normal_map, maps.position
    grid = mesh(3, 0.5, 3)
    dY = central.grad(Y, grid, 1e-4)
    deta = central.grad(eta, grid, 1e-4)
    b = seeded_constants.b
    assert np.max(np.abs(deta - b[None, :, None] * dY)) <= 1e-8


def test_rho_at_origin(identity_constants):
    # rho(v) = 1/2 + |v|^2: 1/2 at v = 0, where vbar = 0 too.
    maps = build_immersion(identity_constants)
    assert abs(analyze(maps.chart, np.zeros((1, 3))).rho[0] - 0.5) <= 1e-15


def test_identity_constants_reproduce_family(identity_constants):
    maps = build_immersion(identity_constants)
    reference = hilf_chart(HilfParams(a=tuple(1.0 / identity_constants.b)))
    grid = mesh(3, 0.6, 5)
    assert np.max(np.abs(maps.chart.evaluator(grid) - reference.evaluator(grid))) <= 1e-9
    assert np.max(np.abs(maps.chart.normal(grid) - reference.normal(grid))) <= 1e-9


def test_closed_form_rho_and_mean_radius_match_the_pipeline(seeded_constants):
    # rho(v) = 1/2 + |v|^2 and r(v) = sum v_k^2 b_k + phi/2 are closed forms;
    # the lift reads rho and r off the traces of the derived chart at vbar.
    c = seeded_constants
    maps = build_immersion(c)
    v = np.random.default_rng(12).uniform(-0.5, 0.5, size=(20, 3))
    a = analyze(maps.chart, np.sqrt(2.0) * v * c.b)
    assert np.max(np.abs(a.rho - (0.5 + np.sum(v**2, axis=1)))) <= 1e-12
    assert np.max(np.abs(a.r - (np.sum(v**2 * c.b, axis=1) + 0.5 * c.phi))) <= 1e-12


@pytest.mark.parametrize("seed", [None, 0, 7], ids=["CONSTANTS", "seed-0", "seed-7"])
def test_constructed_maps_are_the_lift_of_their_chart(seed):
    # Y and eta of the pipeline on the vbar grid sqrt(2) v b are the
    # constructed position and normal map at v, constant terms included: no
    # check row reads those, as frobenius_report reads only derivatives.
    c = CONSTANTS if seed is None else ConstructionConstants(
        b_from_curvatures([1, 2, 3]), cmat=random_orthogonal(3, seed))
    maps, v = build_immersion(c), mesh(3, 0.5, 3)
    a = analyze(maps.chart, np.sqrt(2.0) * v * c.b)
    assert len(a.grid) == len(v)
    assert np.max(np.abs(maps.position(v) - a.Y)) <= 1e-13
    assert np.max(np.abs(maps.normal_map(v) - a.eta)) <= 1e-13


def test_constructed_chart_jets_exact(seeded_constants):
    maps = build_immersion(seeded_constants)
    rng = np.random.default_rng(8)
    G = rng.uniform(-0.5, 0.5, size=(20, 3))
    _, dx, ddx = maps.chart.jet(G, 2).partials()
    dx_fd = central.grad(maps.chart.evaluator, G, 1e-5)
    ddx_fd = central.hess(maps.chart.evaluator, G, 1e-4)
    assert np.max(np.abs(dx - dx_fd)) <= 1e-9
    assert np.max(np.abs(ddx - ddx_fd)) <= 1e-6


def test_full_pipeline_roundtrip(seeded_constants):
    maps = build_immersion(seeded_constants)
    v_grid = mesh(3, 0.5, 3)
    vbar = np.sqrt(2.0) * v_grid * seeded_constants.b
    cls = classify_analysis(analyze(maps.chart, vbar))
    assert cls.is_isotropic
    assert abs(cls.lambda_estimate) <= 1e-5
    assert cls.is_isoparametric
    sorted_in = np.sort(seeded_constants.b)
    match = min(
        np.max(np.abs(np.sort(cls.b_hat) - sorted_in)),
        np.max(np.abs(np.sort(-cls.b_hat) - sorted_in)),
    )
    assert match <= 1e-5


def test_frobenius_report(seeded_constants):
    maps = build_immersion(seeded_constants)
    grid = mesh(3, 0.5, 3)
    res = {key: np.max(np.abs(r)) for key, r in frobenius_report(maps, grid).items()}
    # exact partials: Y has no mixed terms, and the rest is roundoff
    assert res["mixed_partials"] == 0.0
    assert res["second_equation"] <= 1e-12
    assert res["eta_derivative"] <= 1e-12
    assert res["tangent_diagonality"] <= 1e-12
    # the constancy of the pipeline's N and b, rows of the construct suite
    report = construct_suite(seeded_constants, grid)
    for name in ("frobenius_pipeline_n_constancy", "frobenius_pipeline_b_constancy"):
        assert next(c for c in report.checks if c.name == name).residual <= 1e-6


@pytest.mark.parametrize("n", range(2, 6))
def test_diagonal_metric_has_no_derivative_along_its_axis(n):
    # g_ii = 2 |cmat row i|^2 = 2 in v coordinates, so d_i g_ii = 2 <Y_,ii,
    # Y_,i> is exactly 0.0 on every admissible constant set, and
    # frobenius_report leaves out the term g_ii,i Y_,i / (2 g_ii^2).
    signs = laguerre_signs(n)
    for seed in range(10):
        rng = np.random.default_rng(100 * n + seed)
        curvatures = rng.permutation(np.arange(1, n + 1)) * rng.choice([-1.0, 1.0], n)
        c = ConstructionConstants(b_from_curvatures(curvatures + rng.uniform(-0.3, 0.3, n)),
                                  cmat=random_orthogonal(n, seed),
                                  **{key: rng.uniform(-1.0, 1.0, n)
                                     for key in ("beta1", "beta3", "gamma1")})
        assert validate_constants(c) == ()
        V = taylor.variables(rng.uniform(-0.5, 0.5, (7, n)), 2)
        _, dY, ddY = build_immersion(c).position(V).partials()
        idx = np.arange(n)
        assert np.all(2.0 * np.einsum("mil,l,mil->mi", ddY[:, idx, idx], signs, dY) == 0.0)


def test_frobenius_report_evaluates_each_map_once(seeded_constants):
    maps = build_immersion(seeded_constants)
    grid = mesh(3, 0.5, 3)
    calls = []

    def counted(name, f):
        def wrapper(V):
            calls.append((name, V.shape[0]))
            return f(V)
        return wrapper

    counted_maps = dataclasses.replace(
        maps,
        position=counted("position", maps.position),
        normal_map=counted("normal_map", maps.normal_map),
    )
    counted, plain = frobenius_report(counted_maps, grid), frobenius_report(maps, grid)
    assert counted.keys() == plain.keys()
    assert all(np.array_equal(counted[key], plain[key]) for key in plain)
    # once each, on the Taylor seeds of the grid points
    assert calls == [("position", len(grid)), ("normal_map", len(grid))]


def test_equivalence_across_orthogonal_choices():
    """Different admissible matrices yield the same invariant fields."""
    sorted_hats = []
    for seed in (1, 2):
        c = ConstructionConstants(B123, cmat=random_orthogonal(3, seed))
        maps = build_immersion(c)
        vbar = np.sqrt(2.0) * mesh(3, 0.4, 3) * c.b
        cls = classify_analysis(analyze(maps.chart, vbar))
        assert cls.is_isotropic and cls.is_isoparametric
        b_hat = np.sort(cls.b_hat)
        if b_hat[0] * np.sort(B123)[0] < 0:
            b_hat = np.sort(-b_hat)
        sorted_hats.append(b_hat)
    assert np.max(np.abs(sorted_hats[0] - sorted_hats[1])) <= 1e-5


def test_phi_invariance_of_classification():
    outputs = []
    for phi in (0.0, 0.7):
        chart = hilf_chart(HilfParams(a=(1.0, 2.0, 3.0), phi=phi))
        cls = classify_analysis(analyze(chart, mesh(3, 0.4, 3)))
        b_hat = np.sort(cls.b_hat)
        if b_hat[0] > 0:
            b_hat = np.sort(-b_hat)
        outputs.append((b_hat, cls.lambda_estimate, cls.max_abs_rho_c))
    (b0, l0, c0), (b1, l1, c1) = outputs
    assert np.max(np.abs(b0 - b1)) <= 1e-5
    assert abs(l0 - l1) <= 1e-5
    assert abs(c0 - c1) <= 1e-5


def test_build_rejects_invalid_constants():
    bad = ConstructionConstants(np.array([0.5, 0.5, -1.0]))
    with pytest.raises(ParameterError):
        build_immersion(bad)


@pytest.mark.parametrize("data,match", [
    ([0.6, -0.8], "JSON object"),
    ({"b": [0.6, -0.8], "cmat": [1, 0, 0, 1], "beta1": [[1, 2], [3]]}, "'beta1'"),
    ({"b": [0.6, -0.8], "cmat": [[1, 0, 0], [1]]}, "'cmat'"),
    ({"b": [0.6, -0.8], "cmat": [[[1, 0], [0, 1]]]}, "'cmat'"),
    ({"b": [0.6, -0.8], "cmat": [1, 0, 0, 1], "gamma1": [None, 0]}, "'gamma1'"),
    ({"b": [0.6, -0.8], "cmat": [1, 0, 0, 1], "beta_1": [0, 0]}, r"unknown constant\(s\) 'beta_1'"),
    ({"cmat": [1, 0, 0, 1]}, "missing constant 'b'"),
], ids=["not-object", "ragged-rows", "ragged-cmat-rows", "too-deep", "null-entry", "unknown-key",
        "missing-b"])
def test_constants_json_refuses_what_is_not_numbers(data, match):
    # Each exits ``construct --constants`` with one error line, never a
    # numpy traceback.
    with pytest.raises(ParameterError, match=match):
        ConstructionConstants.from_json_dict(data)


def test_constants_json_roundtrip(seeded_constants):
    data = seeded_constants.to_json_dict()
    back = ConstructionConstants.from_json_dict(data)
    assert back.to_json_dict() == data
    # Absent vectors take the defaults of the dataclass: zeros.
    bare = ConstructionConstants.from_json_dict({"b": data["b"], "cmat": data["cmat"]})
    assert bare.to_json_dict() == ConstructionConstants(B123, seeded_constants.cmat).to_json_dict()
    assert not np.any(bare.beta1) and not np.any(bare.beta3) and not np.any(bare.gamma1)
