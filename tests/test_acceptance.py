"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with ``pytest -s``).  The
recovered Laguerre principal curvatures are compared up to one global
sign, since the normal orientation of a concrete chart is a convention;
the chosen orientation is recorded in every report.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from lagkit.cli import main as cli_main
from lagkit.construction import (
    ConstructionConstants,
    b_from_curvatures,
    build_immersion,
    random_orthogonal,
)
from lagkit.families import (
    HilfParams,
    degenerate_example,
    hilf_chart,
    laguerre_immersion_tau,
)
from lagkit.invariants import analyze, classify_analysis
from lagkit.spaces import is_laguerre_transform
from lagkit.verifier import construct_suite, run_suite
from tests.conftest import laguerre_rotation, mesh


def report_line(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} [{status}] {name} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def b_distance(b_hat, expected):
    """Distance up to the global orientation sign, after sorting."""
    b_hat = np.asarray(b_hat)
    return min(
        float(np.max(np.abs(np.sort(b_hat) - expected))),
        float(np.max(np.abs(np.sort(-b_hat) - expected))),
    )


def expected_b123():
    # independent arithmetic oracle: radii (1, 1/2, 1/3), mean 11/18,
    # rho^2 = 13/54, b = (r - r_i)/rho = (-7, 2, 5)/sqrt(78)
    radii = [Fraction(1, 1), Fraction(1, 2), Fraction(1, 3)]
    mean = sum(radii, Fraction(0)) / 3
    diffs = [mean - r for r in radii]
    rho = float(sum(d * d for d in diffs)) ** 0.5
    return np.sort([float(d) / rho for d in diffs])


@pytest.fixture(scope="module")
def family_suite(hilf3):
    grid = mesh(3, 0.4, 5)
    start = time.perf_counter()
    report = run_suite(hilf3, grid)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_criterion_1_explicit_family_suite(family_suite):
    report, elapsed = family_suite
    a = report.analysis
    checks = {c.name: c for c in report.checks}

    b_trace = float(np.max(np.abs(a.b.sum(axis=1))))
    b_square = float(np.max(np.abs((a.b**2).sum(axis=1) - 1.0)))
    b_dev = b_distance(report.classification["b_hat"], expected_b123())
    max_c = float(np.max(np.abs(a.C_closed)))
    max_l = float(np.max(np.abs(a.L_structural)))
    frame_names = (
        "position_lightlike", "n_vector_lightlike", "position_n_pairing",
        "normal_map_lightlike", "normal_map_p_pairing",
        "position_normal_orthogonal", "tangent_orthonormality",
    )
    frame_res = max(checks[name].residual for name in frame_names)

    ok = (
        b_trace <= 1e-9
        and b_square <= 1e-9
        and b_dev <= 1e-6
        and max_c <= 1e-5
        and max_l <= 1e-4
        and frame_res <= 1e-6
        and elapsed <= 30.0
        and report.passed
    )
    report_line(
        1, "explicit-family suite", ok,
        f"(b ids {max(b_trace, b_square):.1e}, b_hat dev {b_dev:.1e}, "
        f"|C| {max_c:.1e}, |L| {max_l:.1e}, frame {frame_res:.1e}, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_2_two_curvature_constants(torus21):
    rng = np.random.default_rng(2024)
    pts = np.stack(
        [rng.uniform(-np.pi, np.pi, 20), rng.uniform(-0.95, 0.95, 20) * np.pi / 3],
        axis=-1,
    )
    report = run_suite(torus21, pts)
    # n = 2, m = 1: sum b = 0 and sum b^2 = 1 fix b_1 = sqrt((n-m)/(mn)) and
    # b_2 = -sqrt(m/(n(n-m))), +-sqrt(1/2), at every point.
    n, m = 2, 1
    targets = [-np.sqrt(m / (n * (n - m))), np.sqrt((n - m) / (m * n))]
    deviation = float(np.max(np.abs(np.sort(report.analysis.b, axis=1) - targets)))
    ok = report.passed and deviation <= 1e-6
    report_line(
        2, "torus two-curvature constants", ok,
        f"(max |b - constants| {deviation:.1e}, multiplicity m={m})",
    )


def test_criterion_3_curvature_relation(family_suite):
    report, _ = family_suite
    a = report.analysis
    flatness = float(np.max(np.abs(a.riemann_frame)))
    L = a.L_structural
    eye = np.eye(3)
    rhs = (
        np.einsum("mjk,il->mijkl", L, eye)
        + np.einsum("mil,jk->mijkl", L, eye)
        - np.einsum("mik,jl->mijkl", L, eye)
        - np.einsum("mjl,ik->mijkl", L, eye)
    )
    relation = float(np.max(np.abs(a.riemann_frame - rhs)))
    ok = flatness <= 1e-4 and relation <= 1e-3
    report_line(
        3, "flatness and curvature relation", ok,
        f"(max|R| {flatness:.1e}, relation {relation:.1e})",
    )


def test_criterion_4_tau_equivalence():
    worst = 0.0
    for a in [(1.0, 2.0), (1.0, 2.0, 3.0)]:
        params = HilfParams(a=a)
        deg = degenerate_example(params)
        euclid = hilf_chart(params)
        grid = mesh(len(a), 0.4, 5)
        x_img, xi_img = laguerre_immersion_tau(deg.x_map(grid), deg.xi_map(grid))
        worst = max(
            worst,
            float(np.max(np.abs(x_img - euclid.evaluator(grid)))),
            float(np.max(np.abs(xi_img - euclid.normal(grid)))),
        )
    ok = worst <= 1e-12
    report_line(4, "degenerate-model equivalence", ok, f"(max dev {worst:.1e})")


def test_criterion_5_construction_roundtrip():
    b = b_from_curvatures([1, 2, 3])

    # identity matrix with the cancelling constants: exact reproduction
    maps_id = build_immersion(ConstructionConstants(b))
    reference = hilf_chart(HilfParams(a=tuple(1.0 / b)))
    vbar = mesh(3, 0.6, 5)
    repro = max(
        float(np.max(np.abs(maps_id.chart.evaluator(vbar) - reference.evaluator(vbar)))),
        float(np.max(np.abs(maps_id.chart.normal(vbar) - reference.normal(vbar)))),
    )

    # seeded orthogonal matrix: classify the output end to end
    c_rand = ConstructionConstants(b, cmat=random_orthogonal(3, seed=1))
    maps = build_immersion(c_rand)
    v_grid = mesh(3, 0.5, 5)[::5]
    cls = classify_analysis(analyze(maps.chart, np.sqrt(2.0) * v_grid * b))
    b_dev = b_distance(cls.b_hat, np.sort(b))
    worst_frob = max(c.residual for c in construct_suite(c_rand, v_grid).checks
                     if c.name.startswith("frobenius_"))

    ok = (
        repro <= 1e-9
        and cls.is_isotropic
        and abs(cls.lambda_estimate) <= 1e-5
        and cls.is_isoparametric
        and b_dev <= 1e-5
        and worst_frob <= 1e-6
    )
    report_line(
        5, "construction round trip", ok,
        f"(reproduction {repro:.1e}, lambda {cls.lambda_estimate:.1e}, "
        f"b dev {b_dev:.1e}, frobenius {worst_frob:.1e})",
    )


def test_criterion_6_closed_form_matches_structural(family_suite):
    report, _ = family_suite
    a = report.analysis
    check = next(c for c in report.checks if c.name == "l_closed_form")
    scale = max(1.0, float(np.max(np.abs(a.L_structural))))
    deviation = float(np.max(np.abs(a.L_closed - a.L_structural))) / scale
    ok = check.status == "pass" and check.residual == deviation and deviation <= 1e-3
    report_line(
        6, "closed form of L matches the structural one", ok,
        f"(relative deviation {deviation:.1e})",
    )


def test_criterion_7_phi_invariance():
    grid = mesh(3, 0.4, 5)
    results = []
    for phi in (0.0, 0.7):
        chart = hilf_chart(HilfParams(a=(1.0, 2.0, 3.0), phi=phi))
        cls = classify_analysis(analyze(chart, grid[::5]))
        results.append(cls)
    b_dev = b_distance(results[0].b_hat, np.sort(np.asarray(results[1].b_hat)))
    l_dev = abs(results[0].lambda_estimate - results[1].lambda_estimate)
    c_dev = abs(results[0].max_abs_rho_c - results[1].max_abs_rho_c)
    ok = b_dev <= 1e-5 and l_dev <= 1e-5 and c_dev <= 1e-5
    report_line(
        7, "phi-shift invariance", ok,
        f"(b {b_dev:.1e}, lambda {l_dev:.1e}, C {c_dev:.1e})",
    )


def test_criterion_8_group_membership():
    rng = np.random.default_rng(8)
    all_pass = True
    all_perturbed_fail = True
    for seed in range(100):
        T = laguerre_rotation(3, seed)
        all_pass &= is_laguerre_transform(T)
        T_bad = T.copy()
        i, j = rng.integers(0, 7, size=2)
        T_bad[i, j] += 1e-3
        all_perturbed_fail &= not is_laguerre_transform(T_bad)
    ok = all_pass and all_perturbed_fail
    report_line(
        8, "group membership test", ok,
        f"(100 members pass: {all_pass}, perturbed fail: {all_perturbed_fail})",
    )


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / tag / "report.json"
        out.parent.mkdir()
        code = cli_main([
            "verify", "--surface", "hilf", "--a", "1,2,3",
            "--grid", "3", "--half-width", "0.4", "--seed", "5",
            "--no-timestamp", "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    verify_identical = outputs[0] == outputs[1]

    outputs = []
    for tag in ("c1", "c2"):
        out = tmp_path / tag / "construct.json"
        out.parent.mkdir()
        code = cli_main([
            "construct", "--b-from-a", "1,2,3", "--seed", "1",
            "--grid", "3", "--half-width", "0.5",
            "--no-timestamp", "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    construct_identical = outputs[0] == outputs[1]

    ok = verify_identical and construct_identical
    report_line(
        9, "byte-identical reports", ok,
        f"(verify: {verify_identical}, construct: {construct_identical})",
    )
