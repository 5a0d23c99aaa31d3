"""Mutants that the checks of the suite must kill.

``MUTANTS`` maps a check name to mutants of the pipeline, each with the
input it runs on.  A mutant takes pytest's ``monkeypatch``, a chart and
a grid, and returns the mutated ``Analysis``; the check must pass on the
unmutated pipeline and fail on the mutant, at the default tolerances.
"""

import dataclasses

import numpy as np
import pytest

from lagkit import invariants
from lagkit.families import HilfParams, hilf_chart
from lagkit.invariants import analyze, classify_analysis
from lagkit.verifier import CHECKS, PropertyReport, Tolerances
from tests.conftest import mesh

TOL = Tolerances()


def hilf3():
    """hilf (1,2,3) on 5^3 at half-width 0.4, the verify-hilf3 input."""
    return hilf_chart(HilfParams(a=(1.0, 2.0, 3.0))), mesh(3, 0.4, 5)


def l_constant_term(monkeypatch, chart, grid):
    # rho^-2 I / 2 added to L_closed: the constant term read as
    # |grad f|^2 / 2 instead of (|grad f|^2 - 1) / 2.  Relative deviation
    # 8.3 on hilf3.
    a = analyze(chart, grid)
    shift = 0.5 * a.lift.rho[:, None, None] ** -2 * np.eye(a.grid.shape[1])
    return dataclasses.replace(a, L_closed=a.L_closed + shift)


def l_direction_weight(monkeypatch, chart, grid):
    # grad log rho taken along the unit principal directions e_i = E'_i / r_i
    # instead of E'_i = rho E_i in the outer-product term.  Relative
    # deviation 631 on hilf3.
    r_i = analyze(chart, grid).lift.r_i
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
    return dataclasses.replace(a, N=a.N + 1e-5 * a.lift.Y)


def patched(name, mutate):
    """A mutant that runs ``analyze`` with ``invariants.<name>`` replaced
    by ``mutate`` of the original; the patch holds while the check runs."""
    def mutant(monkeypatch, chart, grid):
        monkeypatch.setattr(invariants, name, mutate(getattr(invariants, name)))
        return analyze(chart, grid)
    return mutant


MUTANTS = {
    "n_vector_lightlike": (("n-plus-y", hilf3, n_plus_y),),
    # The frame scaled by 1 + 1e-5: E_Y . E_Y - I reads 2e-5 on hilf3.
    "tangent_orthonormality": (
        ("frame-scaled", hilf3, patched(
            "frame_coefficients", lambda f: lambda lift: (1 + 1e-5) * f(lift))),),
    # P read as 2P in the structure equation: 0.79 on hilf3.
    "structure_equation": (
        ("p-doubled", hilf3, patched("p_vector", lambda f: lambda space: 2.0 * f(space))),),
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
    "curvature_antisymmetry": (
        ("pair-12", hilf3, riemann_pair_broken((1, 2))),
        ("pair-34", hilf3, riemann_pair_broken((3, 4))),
    ),
}


def record(name, a):
    """The suite's record of check ``name`` on the analysis ``a``."""
    report = PropertyReport(chart={}, grid={}, orientation="")
    check = next(c for c in CHECKS if c.name == name)
    report.run(check, a, classify_analysis(a, TOL.classification), TOL)
    return report.checks[-1]


@pytest.mark.parametrize("name, inputs, mutant", [
    pytest.param(name, inputs, mutant, id=f"{name}-{label}")
    for name, rows in MUTANTS.items() for label, inputs, mutant in rows
])
def test_mutant_fails_a_check_the_pipeline_passes(name, inputs, mutant, monkeypatch):
    chart, grid = inputs()
    assert record(name, analyze(chart, grid)).status == "pass"
    mutated = record(name, mutant(monkeypatch, chart, grid))
    assert mutated.status == "fail", mutated
