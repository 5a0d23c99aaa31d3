import dataclasses

import numpy as np
import pytest

from lagkit import fd
from lagkit.construction import (
    ConstructionConstants,
    b_from_curvatures,
    build_immersion,
    build_normal_map,
    build_position,
    frobenius_report,
    random_orthogonal,
    validate_constants,
)
from lagkit.errors import InputError, ParameterError
from lagkit.families import HilfParams, hilf_chart
from lagkit.invariants import analyze, classify
from lagkit.spaces import laguerre_space
from tests.conftest import mesh

B123 = b_from_curvatures([1, 2, 3])


def test_b_from_curvatures_exact():
    assert abs(B123.sum()) <= 1e-15
    assert abs((B123**2).sum() - 1.0) <= 1e-14
    with pytest.raises(ParameterError):
        b_from_curvatures([1, 1, 2])
    with pytest.raises(ParameterError):
        b_from_curvatures([0, 1, 2])


def test_validate_good_constants():
    report = validate_constants(ConstructionConstants.simple(B123))
    assert report.ok and not report.failures


def test_validate_scaled_row_fails():
    cmat = np.eye(3)
    cmat[1] *= 2.0
    report = validate_constants(ConstructionConstants.simple(B123, cmat=cmat))
    assert not report.ok
    assert any("orthogonal" in msg for msg in report.failures)


def test_validate_repeated_b_fails():
    bad = np.array([0.5, 0.5, -1.0])
    bad = bad / np.sqrt(np.sum(bad**2))
    report = validate_constants(ConstructionConstants.simple(bad))
    assert not report.ok
    assert any("distinct" in msg for msg in report.failures)


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
    return ConstructionConstants.simple(B123)


@pytest.fixture(scope="module")
def seeded_constants():
    return ConstructionConstants.simple(
        B123,
        cmat=random_orthogonal(3, seed=1),
        beta1=np.array([0.3, -0.1, 0.2]),
        beta3=np.array([0.1, 0.05, -0.2]),
        gamma1=np.array([0.01, 0.0, -0.02]),
    )


def test_position_at_origin(identity_constants):
    Y = build_position(identity_constants)(np.zeros((1, 3)))[0]
    assert Y[2] == -0.5
    assert Y[-1] == 0.5
    assert np.allclose(Y[3:-1], 0.0)


def test_position_lightlike_random(seeded_constants):
    Y = build_position(seeded_constants)
    rng = np.random.default_rng(5)
    V = rng.uniform(-1.0, 1.0, size=(100, 3))
    sp = laguerre_space(3)
    vals = Y(V)
    assert np.max(np.abs(sp.dot(vals, vals))) <= 1e-12
    assert np.max(np.abs(vals[:, -1] - vals[:, 2] - 1.0)) <= 1e-12


def test_position_tangents_diagonal(seeded_constants):
    Y = build_position(seeded_constants)
    sp = laguerre_space(3)
    grid = mesh(3, 0.5, 3)
    dY = fd.grad_field(Y, grid, 1e-4, 4)
    gram = np.einsum("mal,l,mbl->mab", dY, sp.signs, dY)
    off = gram.copy()
    idx = np.arange(3)
    off[:, idx, idx] = 0.0
    assert np.max(np.abs(off)) <= 1e-10
    # in these coordinates the diagonal is exactly 2
    assert np.max(np.abs(np.diagonal(gram, axis1=1, axis2=2) - 2.0)) <= 1e-10


def test_normal_map_constraints(seeded_constants):
    eta = build_normal_map(seeded_constants)
    Y = build_position(seeded_constants)
    sp = laguerre_space(3)
    rng = np.random.default_rng(6)
    V = rng.uniform(-1.0, 1.0, size=(100, 3))
    e = eta(V)
    assert np.max(np.abs(e[:, 0] + e[:, 1] - 1.0)) <= 1e-15
    assert np.max(np.abs(sp.dot(e, e))) <= 1e-12
    assert np.max(np.abs(sp.dot(e, Y(V)))) <= 1e-10
    N = np.zeros(7)
    N[2] = N[-1] = 1.0
    assert np.max(np.abs(sp.dot(e, np.broadcast_to(N, e.shape)))) <= 1e-12


def test_normal_map_derivative_relation(seeded_constants):
    eta = build_normal_map(seeded_constants)
    Y = build_position(seeded_constants)
    grid = mesh(3, 0.5, 3)
    dY = fd.grad_field(Y, grid, 1e-4, 4)
    deta = fd.grad_field(eta, grid, 1e-4, 4)
    b = seeded_constants.b
    assert np.max(np.abs(deta - b[None, :, None] * dY)) <= 1e-8


def test_rho_at_origin(identity_constants):
    maps = build_immersion(identity_constants)
    assert maps.rho(np.zeros((1, 3)))[0] == 0.5


def test_identity_constants_reproduce_family(identity_constants):
    maps = build_immersion(identity_constants)
    reference = hilf_chart(HilfParams(a=tuple(1.0 / identity_constants.b)))
    grid = mesh(3, 0.6, 5)
    assert np.max(np.abs(maps.x(grid) - reference.evaluator(grid))) <= 1e-9
    assert np.max(np.abs(maps.xi(grid) - reference.normal(grid))) <= 1e-9


def test_constructed_chart_jets_exact(seeded_constants):
    maps = build_immersion(seeded_constants)
    rng = np.random.default_rng(8)
    G = rng.uniform(-0.5, 0.5, size=(20, 3))
    _, dx, ddx = maps.chart.jet(G)
    dx_fd = fd.grad_field(maps.chart.evaluator, G, 1e-5, 4)
    ddx_fd = fd.hess_field(maps.chart.evaluator, G, 1e-4, 4)
    assert np.max(np.abs(dx - dx_fd)) <= 1e-9
    assert np.max(np.abs(ddx - ddx_fd)) <= 1e-6


def test_full_pipeline_roundtrip(seeded_constants):
    maps = build_immersion(seeded_constants)
    v_grid = mesh(3, 0.5, 3)
    vbar = np.sqrt(2.0) * v_grid * seeded_constants.b
    cls = classify(maps.chart, vbar)
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
    analysis = analyze(maps.chart, np.sqrt(2.0) * grid * seeded_constants.b)
    res = frobenius_report(maps, grid, analysis)
    assert res["mixed_partials"] <= 1e-8
    assert res["second_equation"] <= 1e-6
    assert res["eta_derivative"] <= 1e-8
    assert res["pipeline_n_constancy"] <= 1e-6
    assert res["pipeline_b_constancy"] <= 1e-6


def test_frobenius_report_evaluates_each_map_once(seeded_constants):
    maps = build_immersion(seeded_constants)
    grid = mesh(3, 0.5, 3)
    analysis = analyze(maps.chart, np.sqrt(2.0) * grid * seeded_constants.b)
    calls = []

    def counted(name, f):
        def wrapper(V):
            calls.append((name, len(V)))
            return f(V)
        return wrapper

    counted_maps = dataclasses.replace(
        maps,
        position=counted("position", maps.position),
        normal_map=counted("normal_map", maps.normal_map),
    )
    assert frobenius_report(counted_maps, grid, analysis) == frobenius_report(maps, grid, analysis)
    points = len(fd.Cloud(grid, (1e-3, 1e-3), 4).points)
    assert calls == [("position", points), ("normal_map", points)]
    # an analysis of any other grid than sqrt(2) grid b is refused
    with pytest.raises(InputError, match="vbar grid"):
        frobenius_report(maps, grid[:-1], analysis)
    with pytest.raises(InputError, match="vbar grid"):
        frobenius_report(maps, grid, analyze(maps.chart, grid))


def test_equivalence_across_orthogonal_choices():
    """Different admissible matrices yield the same invariant fields."""
    sorted_hats = []
    for seed in (1, 2):
        c = ConstructionConstants.simple(B123, cmat=random_orthogonal(3, seed))
        maps = build_immersion(c)
        vbar = np.sqrt(2.0) * mesh(3, 0.4, 3) * c.b
        cls = classify(maps.chart, vbar)
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
        cls = classify(chart, mesh(3, 0.4, 3))
        b_hat = np.sort(cls.b_hat)
        if b_hat[0] > 0:
            b_hat = np.sort(-b_hat)
        outputs.append((b_hat, cls.lambda_estimate, cls.max_abs_c))
    (b0, l0, c0), (b1, l1, c1) = outputs
    assert np.max(np.abs(b0 - b1)) <= 1e-5
    assert abs(l0 - l1) <= 1e-5
    assert abs(c0 - c1) <= 1e-5


def test_build_rejects_invalid_constants():
    bad = ConstructionConstants.simple(np.array([0.5, 0.5, -1.0]))
    with pytest.raises(ParameterError):
        build_position(bad)


def test_constants_json_roundtrip(seeded_constants):
    data = seeded_constants.to_json_dict()
    back = ConstructionConstants.from_json_dict(data)
    assert np.array_equal(back.b, seeded_constants.b)
    assert np.array_equal(back.cmat, seeded_constants.cmat)
