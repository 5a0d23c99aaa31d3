"""Mutants that the checks of the verifier's tables must kill.

``MUTANTS`` maps a check name to mutants of the pipeline, each with the
runner of its input.  A runner ``run(name, monkeypatch, mutant=None)``
gives the record of check ``name`` on its input, mutated by ``mutant``
when one is given; the check must pass on the unmutated pipeline and
fail on the mutant, at the tolerances of ``Tolerances``.  A mutant of a ``CHECKS``
row takes ``monkeypatch``, a chart and a grid and returns the mutated
``Analysis``; a mutant of another table's row maps that suite's input
(the constructed maps, the degenerate model) to a mutated one.
"""

import dataclasses

import numpy as np
import pytest

from lagkit import invariants, verifier
from lagkit.construction import ConstructionConstants, b_from_curvatures, random_orthogonal
from lagkit.families import HilfParams, degenerate_example, hilf_chart
from lagkit.invariants import analyze, classify_analysis
from lagkit.verifier import (
    CHECKS,
    CONSTRUCT_CHECKS,
    MODEL_CHECKS,
    TAU_CHECKS,
    PropertyReport,
    construct_suite,
    degenerate_model_report,
    tau_suite,
)
from tests.conftest import mesh

ROWS = {row.name: row for table in (CHECKS, CONSTRUCT_CHECKS, MODEL_CHECKS, TAU_CHECKS)
        for row in table}


def record(name, *context):
    """The record of check ``name``, a row of any table, on its table's context."""
    report = PropertyReport(chart={}, grid={}, orientation="")
    report.run(ROWS[name], *context)
    return report.checks[-1]


def by_name(report, name):
    return next(c for c in report.checks if c.name == name)


def hilf3(name, monkeypatch, mutant=None):
    """hilf (1,2,3) on 5^3 at half-width 0.4, the verify-hilf3 input."""
    chart, grid = hilf_chart(HilfParams(a=(1.0, 2.0, 3.0))), mesh(3, 0.4, 5)
    a = analyze(chart, grid) if mutant is None else mutant(monkeypatch, chart, grid)
    return record(name, a, classify_analysis(a))


# Seeded constants, b of curvatures 1, 2, 3, with every free vector set.
CONSTANTS = ConstructionConstants(
    b_from_curvatures([1, 2, 3]), cmat=random_orthogonal(3, seed=1),
    beta1=np.array([0.3, -0.1, 0.2]), beta3=np.array([0.1, 0.05, -0.2]),
    gamma1=np.array([0.01, 0.0, -0.02]),
)


def constructed(name, monkeypatch, mutant=None):
    """construct_suite on ``CONSTANTS`` over 3^3 at half-width 0.5,
    ``mutant`` applied to the built maps."""
    if mutant is not None:
        build = verifier.build_immersion
        monkeypatch.setattr(verifier, "build_immersion", lambda c: mutant(build(c)))
    return by_name(construct_suite(CONSTANTS, mesh(3, 0.5, 3)), name)


def degenerate(name, monkeypatch, mutant=None, suite=degenerate_model_report):
    """The degenerate model of hilf (1, 2) on 5^2 at half-width 0.4."""
    deg = degenerate_example(HilfParams(a=(1.0, 2.0)))
    return by_name(suite(deg if mutant is None else mutant(deg), mesh(2, 0.4, 5)), name)


def tau(name, monkeypatch, mutant=None):
    """tau_suite on the input of ``degenerate``."""
    return degenerate(name, monkeypatch, mutant, tau_suite)


def l_constant_term(monkeypatch, chart, grid):
    # rho^-2 I / 2 added to L_closed: the constant term read as
    # |grad f|^2 / 2 instead of (|grad f|^2 - 1) / 2.  Relative deviation
    # 8.3 on hilf3.
    a = analyze(chart, grid)
    shift = 0.5 * a.rho[:, None, None] ** -2 * np.eye(a.grid.shape[1])
    return dataclasses.replace(a, L_closed=a.L_closed + shift)


def l_direction_weight(monkeypatch, chart, grid):
    # grad log rho taken along the unit principal directions e_i = E'_i / r_i
    # instead of E'_i = rho E_i in the outer-product term.  Relative
    # deviation 631 on hilf3.
    r_i = analyze(chart, grid).r_i
    closed = invariants._l_closed
    monkeypatch.setattr(invariants, "_l_closed", lambda inv_rho2, hess, Ep_f, grad_sq: closed(
        inv_rho2, hess, Ep_f / r_i, grad_sq))
    return analyze(chart, grid)


def riemann_pair_broken(pair):
    # The pipeline builds R antisymmetric in both index pairs, so these are
    # data mutants: 1e-8 is added at R_0101 and taken off at its image under
    # the swap of the other pair, so that R stays antisymmetric there and
    # breaks in ``pair`` alone.
    image = {(1, 2): (0, 1, 1, 0), (3, 4): (1, 0, 0, 1)}[pair]

    def mutant(monkeypatch, chart, grid):
        a = analyze(chart, grid)
        r = a.riemann_frame.copy()
        r[:, 0, 1, 0, 1] += 1e-8
        r[(slice(None),) + image] -= 1e-8
        return dataclasses.replace(a, riemann_frame=r)
    return mutant


def n_plus_y(monkeypatch, chart, grid):
    # 1e-5 Y added to N: <N, N> reads 2e-5 on hilf3.  position_n_pairing
    # does not see it, as Y is lightlike: <Y, N + e Y> = <Y, N>.
    a = analyze(chart, grid)
    return dataclasses.replace(a, N=a.N + 1e-5 * a.Y)


def r_over_n_minus_1(monkeypatch, chart, grid):
    # The Taylor polynomial of r read as tr M / (n - 1), not tr M / n, where
    # only C_closed reads its derivative: C = 0 on hilf3, so a mutant that
    # only scales C would read 0, and this one reads 0.57.
    fields, n = invariants._taylor_fields, chart.n

    def mutated(jet):
        out = fields(jet)
        return {**out, "r": out["r"] * (n / (n - 1))}
    monkeypatch.setattr(invariants, "_taylor_fields", mutated)
    return analyze(chart, grid)


def patched(name, mutate, module=invariants):
    """A mutant that runs ``analyze`` with ``module.<name>`` replaced by
    ``mutate`` of the original; the patch holds while the check runs."""
    def mutant(monkeypatch, chart, grid):
        monkeypatch.setattr(module, name, mutate(getattr(module, name)))
        return analyze(chart, grid)
    return mutant


def added(attr, term):
    """The constructed maps with ``term`` of v added to the map ``attr``."""
    def mutant(maps):
        original = getattr(maps, attr)
        return dataclasses.replace(maps, **{attr: lambda V: original(V) + term(V)})
    return mutant


E3 = np.eye(7)[3]   # the first spatial coordinate of R^(n+4), n = 3


def flipped_normal(maps):
    # The derived chart's normal negated: b_hat reads exactly -b.
    normal = maps.chart.normal
    return dataclasses.replace(
        maps, chart=dataclasses.replace(maps.chart, normal=lambda V: -normal(V)))


def bent_normal(deg):
    # xi, and so II = -<dx, dxi> (as <dx, xi> = 0), scaled by (1 + u_1 / 2),
    # so the radii and rho^2 vary.
    return dataclasses.replace(deg, xi_map=lambda U: deg.xi_map(U) * (1 + 0.5 * U[..., :1]))


def remapped(attr, f):
    """The degenerate model with its map ``attr`` read as ``f(value, U)``."""
    def mutant(deg):
        original = getattr(deg, attr)
        return dataclasses.replace(deg, **{attr: lambda U: f(original(U), U)})
    return mutant


# Terms of size 1e-9 in the model's maps, against model_constraints and
# tau_equivalence of 1e-12; each mutant kills two checks.  R^(n+2) of the
# model, n = 2, holds (x_1, u_1, u_2, x_4).
EPS = 1e-9
X1_PLUS_U1 = remapped("x_map", lambda x, U: x + EPS * U[..., :1] * np.eye(4)[0])
XI_ALONG_U1 = remapped("xi_map", lambda xi, U: xi + EPS * np.eye(4)[1])
XI_SCALED = remapped("xi_map", lambda xi, U: xi * (1.0 + EPS))
U_BLOCK_SCALED = remapped("x_map", lambda x, U: x * np.array([1.0, 1.0 + EPS, 1.0 + EPS, 1.0]))


MUTANTS = {
    "n_vector_lightlike": (("n-plus-y", hilf3, n_plus_y),),
    # The frame scaled by 1 + 1e-5: E_Y . E_Y - I reads 2e-5 on hilf3.
    "tangent_orthonormality": (
        ("frame-scaled", hilf3, patched(
            "frame_coefficients", lambda f: lambda *args: (1 + 1e-5) * f(*args))),),
    # P read as 2P in the structure equation: 0.79 on hilf3.
    "structure_equation": (
        ("p-doubled", hilf3, patched(
            "p_vector", lambda f: lambda dimension: 2.0 * f(dimension), verifier)),),
    # rho dropped from B_ab = rho (r III_ab - II_ab): 3.9 on hilf3.
    "covariant_b_contraction": (
        ("b-without-rho", hilf3, patched(
            "_b_tensor", lambda f: lambda r, rho, III, II: r[..., None, None] * III - II)),),
    # The Christoffel symbols of III negated: 4.48 on hilf3.
    "log_rho_trace_identity": (
        ("christoffels-negated", hilf3, patched(
            "christoffels", lambda f: lambda *args: -f(*args))),),
    "l_closed_form": (
        ("constant-term", hilf3, l_constant_term),
        ("direction-weight", hilf3, l_direction_weight),
    ),
    "c_cross_agreement": (("r-over-n-minus-1", hilf3, r_over_n_minus_1),),
    "curvature_antisymmetry": (
        ("pair-12", hilf3, riemann_pair_broken((1, 2))),
        ("pair-34", hilf3, riemann_pair_broken((3, 4))),
    ),
    # One term of size 1e-5 on the grid per integrability residual.
    "frobenius_mixed_partials": (("v1-v2-term", constructed, added(
        "position", lambda V: 1e-5 * (V[..., 0] * V[..., 1])[..., None] * E3)),),
    "frobenius_second_equation": (("v1-cubed-term", constructed, added(
        "position", lambda V: 1e-5 * (V[..., 0] ** 3)[..., None] * E3)),),
    "frobenius_eta_derivative": (("eta-v1-term", constructed, added(
        "normal_map", lambda V: 1e-5 * V[..., :1] * E3)),),
    "frobenius_tangent_diagonality": (("v2-term", constructed, added(
        "position", lambda V: 1e-5 * V[..., 1:2] * E3)),),
    "constructed_b_roundtrip": (("flipped-normal", constructed, flipped_normal),),
    "rho_square_constant": (("bent-normal", degenerate, bent_normal),),
    # x_1 + 1e-9 u_1: 4.0e-10 and 5.0e-10.
    "position_in_hyperplane": (("x1-plus-u1", degenerate, X1_PLUS_U1),),
    "normal_tangency": (("x1-plus-u1", degenerate, X1_PLUS_U1),),
    # xi + 1e-9 on the u_1 axis: 8.0e-10 and 2.0e-9.
    "normal_lightlike": (("xi-along-u1", degenerate, XI_ALONG_U1),),
    "tau_normal_equivalence": (("xi-along-u1", tau, XI_ALONG_U1),),
    # xi (1 + 1e-9): 1.0e-9 and 2.0e-9.
    "normal_nu_pairing": (("xi-scaled", degenerate, XI_SCALED),),
    "second_form_diagonal": (("xi-scaled", degenerate, XI_SCALED),),
    # the u block of x scaled by 1 + 1e-9: 2.0e-9 and 4.0e-10.
    "first_form_euclidean": (("u-block-scaled", degenerate, U_BLOCK_SCALED),),
    "tau_position_equivalence": (("u-block-scaled", tau, U_BLOCK_SCALED),),
}


@pytest.mark.parametrize("name, run, mutant", [
    pytest.param(name, run, mutant, id=f"{name}-{label}")
    for name, rows in MUTANTS.items() for label, run, mutant in rows
])
def test_mutant_fails_a_check_the_pipeline_passes(name, run, mutant, monkeypatch):
    assert run(name, monkeypatch).status == "pass"
    mutated = run(name, monkeypatch, mutant)
    assert mutated.status == "fail", mutated
