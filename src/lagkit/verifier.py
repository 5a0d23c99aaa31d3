"""Property suites over a chart, with a structured pass/fail report.

Every check is a residual r_p at each grid point, whose worst |r_p|
over the grid is compared against a named tolerance, and a row of one
table that its suite walks in report order: ``CHECKS`` (``run_suite``,
the invariants of a chart), ``CONSTRUCT_CHECKS`` (``construct_suite``,
the integrated immersion), ``MODEL_CHECKS`` (``degenerate_model_report``,
the degenerate model) and ``TAU_CHECKS`` (``tau_suite``, the model
mapped onto the explicit family).  A row names the check, its anchor in
the theory, its field of ``Tolerances``, its hypotheses and its residual
over the context its suite builds once.  A row returns r_p with the
points on axis 0, or a scalar >= 0 where the residual is a statistic of
the whole grid; ``PropertyReport.run`` records it, and is the one place
that takes the worst |r_p|.  The tolerances are fixed: no caller sets
one.  Conditional checks whose hypotheses fail on the given chart are
reported as *skipped* with the hypothesis named, never as vacuous passes.
``run_suite``, and ``construct_suite`` on its vbar grid, take one
``analyze`` of the grid: each point it gives a ``reason`` becomes a
per-point error entry, and the checks run on the remaining points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from . import taylor
from .charts import IRREGULAR, Chart, radius_traces
from .construction import (
    FROBENIUS_RESIDUALS,
    ConstructionConstants,
    build_immersion,
    frobenius_report,
)
from .errors import ImmersionError, InputError
from .families import DegenerateChart, HilfParams, hilf_chart, laguerre_immersion_tau
from .invariants import CLASSIFICATION_TOL, Analysis, analyze, classify_analysis
from .spaces import dot, minkowski_signs, p_vector

__all__ = [
    "Tolerances",
    "Check",
    "CHECKS",
    "CONSTRUCT_CHECKS",
    "MODEL_CHECKS",
    "TAU_CHECKS",
    "CheckRecord",
    "PropertyReport",
    "run_suite",
    "construct_suite",
    "degenerate_model_report",
    "tau_suite",
]


class Tolerances:
    """The tolerance of each check family, fixed: a row names its field."""

    frame_relations = 1e-6
    b_identities = 1e-9
    trace_identity = 1e-4
    covariant_identity = 1e-4
    b_cross_agreement = 1e-5
    c_cross_agreement = 1e-5
    structure_equation = 1e-3
    curvature_antisymmetry = 1e-10
    curvature_relation = 1e-3
    isotropic_curvature_form = 1e-4
    covariant_b_square = 1e-4
    log_rho_identity = 1e-5
    classification = CLASSIFICATION_TOL
    prop_two_sign = 1e-6
    l_closed_form = 1e-3
    tau_equivalence = 1e-12
    construction_roundtrip = 1e-9
    frobenius = 1e-6
    model_constraints = 1e-12
    rho_constancy = 1e-8


@dataclass(frozen=True)
class CheckRecord:
    """One executed (or skipped) check of the suite."""

    name: str
    anchor: str
    residual: Optional[float]
    tolerance: Optional[float]
    status: str            # "pass" | "fail" | "skip"
    note: str = ""


@dataclass
class PropertyReport:
    """Deterministic suite outcome for one chart and grid."""

    chart: dict
    grid: dict
    orientation: str
    checks: list = field(default_factory=list)
    classification: Optional[dict] = None
    warnings: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    # carried for callers that sample further; never serialized
    analysis: Optional[Analysis] = field(default=None, repr=False, compare=False)

    def run(self, check: Check, *context) -> None:
        """Record one table row on its suite's context: its residual is the
        worst |r_p| of what the row returns, against its ``Tolerances`` field."""
        skip = next((note for note, holds in check.requires if not holds(*context)), None)
        if skip is not None:
            self.checks.append(CheckRecord(check.name, check.anchor, None, None, "skip", skip))
            return
        value = check.residual(*context)
        residual, note = value if isinstance(value, tuple) else (value, "")
        residual = float(np.max(np.abs(residual)))
        tolerance = getattr(Tolerances, check.tolerance)
        status = "pass" if residual <= tolerance else "fail"
        self.checks.append(CheckRecord(check.name, check.anchor, residual, tolerance, status, note))

    @property
    def passed(self) -> bool:
        executed = [c for c in self.checks if c.status != "skip"]
        return bool(executed) and all(c.status == "pass" for c in executed)

    def to_dict(self) -> dict:
        return {
            "chart": self.chart,
            "grid": self.grid,
            "orientation": self.orientation,
            "checks": [asdict(c) for c in self.checks],
            "classification": self.classification,
            "warnings": self.warnings,
            "errors": self.errors,
            "passed": self.passed,
        }


def _grid_descriptor(grid: np.ndarray) -> dict:
    """Size, dimension and bounds of a grid; InputError if it has no point."""
    if not len(grid):
        raise InputError("the grid has no point")
    return {
        "points": int(grid.shape[0]),
        "dimension": int(grid.shape[1]),
        "min": [float(v) for v in grid.min(axis=0)],
        "max": [float(v) for v in grid.max(axis=0)],
    }


def _point_errors(grid: np.ndarray, reason: np.ndarray) -> list:
    """One error per irregular grid point, grouped in the order of ``IRREGULAR``."""
    return [
        {"index": int(idx), "point": [float(v) for v in grid[idx]], "reason": name}
        for name in IRREGULAR
        for idx in np.flatnonzero(reason == name)
    ]


def _cluster_breaks(k: np.ndarray, rel_tol: float = 1e-4) -> np.ndarray:
    """Where descending curvature rows split into near-equal clusters.

    ``breaks[m, j]`` is True when k[m, j] and k[m, j + 1] fall in
    different clusters; NaN gaps count as breaks.
    """
    scale = np.max(np.abs(k), axis=-1, keepdims=True)
    return ~(-np.diff(k, axis=-1) <= rel_tol * scale)


def _log_rho_laplacian(a, cls):
    # Last coordinate of Delta_g Y = 2 n lambda Y + n alpha, converted
    # through the conformal rescaling g = rho^2 III.  The conversion
    # carries the gradient term and the alpha component; with the
    # gauge alpha^(n+4) = 0 and grad rho = 0 it collapses to the bare
    # Delta_III log rho = 2 n lambda rho^2.
    n = a.grid.shape[1]
    return (
        a.laplace_iii_logrho
        + (n - 1) * a.grad_iii_logrho_sq
        - 2.0 * n * cls.lambda_estimate * a.rho**2
        - n * a.rho * cls.alpha[-1]
    )


def _log_rho_trace_identity(a, cls):
    # Trace of the closed form of L with L = lambda I (gauge-free).
    n = a.grid.shape[1]
    return (
        a.laplace_iii_logrho
        + 0.5 * (n - 2) * a.grad_iii_logrho_sq
        - 0.5 * n
        - n * cls.lambda_estimate * a.rho**2
    )


def _parallel_b_iff_lambda_zero(a, cls):
    lam, tol = cls.lambda_estimate, Tolerances.classification
    grad_b = float(np.max(np.abs(a.cov_B)))
    consistent = (grad_b <= 10 * tol) == (abs(lam) <= tol)
    residual = 0.0 if consistent else max(grad_b, abs(lam))
    return residual, f"max|B_ij,k|={grad_b:.3e}, lambda={lam:.3e}"


def _isoparametric_curvature_sum(a, cls):
    """sum_j R_ijij / (b_i - b_j) over the j in other curvature clusters, for each i.

    Cartan's identity sums over the other distinct curvature values, each
    as often as it repeats, so pairs inside a cluster drop out.
    """
    b = a.b
    cluster = np.cumsum(np.pad(_cluster_breaks(a.k), ((0, 0), (1, 0))), axis=1)
    sectional = np.einsum("mijij->mij", a.riemann_frame)
    terms = np.divide(
        sectional, b[:, :, None] - b[:, None, :], out=np.zeros_like(sectional),
        where=cluster[:, :, None] != cluster[:, None, :],
    )
    total = np.zeros_like(b)
    for j in range(b.shape[1]):  # in j order, not numpy's pairwise summation order
        total += terms[:, :, j]
    return total


def _curvature_relation(a, cls):
    L = a.L_structural
    eye = np.eye(a.grid.shape[1])
    rhs = (
        np.einsum("mjk,il->mijkl", L, eye)
        + np.einsum("mil,jk->mijkl", L, eye)
        - np.einsum("mik,jl->mijkl", L, eye)
        - np.einsum("mjl,ik->mijkl", L, eye)
    )
    return a.riemann_frame - rhs


def _isotropic_curvature_form(a, cls):
    eye = np.eye(a.grid.shape[1])
    iso_form = 2.0 * cls.lambda_estimate * (
        np.einsum("jk,il->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    )
    return a.riemann_frame - iso_form[None]


def _l_closed_form(a, cls):
    """L_closed - L_structural relative to max(1, max|L_structural|)."""
    L = a.L_structural
    return (a.L_closed - L) / max(1.0, float(np.max(np.abs(L))))


def _structure_equation(a, cls):
    """Y_ab - Gamma^k_ab Y_k - (L_ab Y + g_ab N + B_ab P) on the frame."""
    rhs = (
        np.einsum("mij,ml->mijl", a.L_structural, a.Y)
        + np.einsum("ij,ml->mijl", np.eye(a.grid.shape[1]), a.N)
        + np.einsum("mij,l->mijl", a.B_structural, p_vector(a.Y.shape[1]))
    )
    return a.E2_Y - rhs


@dataclass(frozen=True)
class Check:
    """One row of a table: a residual at each grid point against a named
    tolerance.

    ``tolerance`` names a field of ``Tolerances``.  ``residual(*context)``
    takes the context of the row's table (for ``CHECKS`` the analysis
    and its classification) and returns the residual r_p at each point,
    the points on axis 0, or a scalar >= 0 where the residual is a
    statistic of the whole grid, or a ``(residual, note)`` pair;
    ``PropertyReport.run`` records the worst |r_p|.  ``requires`` holds
    ``(note, predicate)`` pairs taking the same arguments: the first
    predicate that fails skips the check with its note, the one way a
    row skips.
    """

    name: str
    anchor: str
    tolerance: str
    residual: Callable
    requires: tuple = ()


_ISOTROPIC = ("requires isotropic input", lambda a, cls: cls.is_isotropic)
_ISOPARAMETRIC = ("requires isoparametric input", lambda a, cls: cls.is_isoparametric)
_FRAME = "lightlike lift pairings and tangent-frame orthonormality"

CHECKS = (
    Check("position_lightlike", _FRAME, "frame_relations",
          lambda a, cls: dot(a.signs, a.Y, a.Y)),
    Check("n_vector_lightlike", _FRAME, "frame_relations",
          lambda a, cls: dot(a.signs, a.N, a.N)),
    Check("position_n_pairing", _FRAME, "frame_relations",
          lambda a, cls: dot(a.signs, a.Y, a.N) + 1.0),
    Check("normal_map_lightlike", _FRAME, "frame_relations",
          lambda a, cls: dot(a.signs, a.eta, a.eta)),
    Check("normal_map_p_pairing", _FRAME, "frame_relations",
          lambda a, cls: a.eta[:, 0] + a.eta[:, 1] - 1.0),
    Check("position_normal_orthogonal", _FRAME, "frame_relations",
          lambda a, cls: dot(a.signs, a.Y, a.eta)),
    Check("tangent_orthonormality", _FRAME, "frame_relations",
          lambda a, cls: np.einsum("mil,l,mjl->mij", a.E_Y, a.signs, a.E_Y)
          - np.eye(a.grid.shape[1])),
    Check("b_trace_zero", "trace-free second fundamental form", "b_identities",
          lambda a, cls: a.b.sum(axis=1)),
    Check("b_square_one", "unit square-norm of the second fundamental form", "b_identities",
          lambda a, cls: (a.b**2).sum(axis=1) - 1.0),
    Check("l_trace_laplacian", "trace of the tensor vs the squared Laplacian of the lift",
          "trace_identity",
          lambda a, cls: np.trace(a.L_structural, axis1=-2, axis2=-1)
          + dot(a.signs, a.delta_y, a.delta_y) / (2.0 * a.grid.shape[1])),
    Check("covariant_b_contraction", "contracted covariant derivative of B equals (n-1) C",
          "covariant_identity",
          lambda a, cls: np.einsum("miji->mj", a.cov_B) - (a.grid.shape[1] - 1) * a.C_closed),
    Check("covariant_b_square", "squared covariant derivative of B equals 2 n lambda",
          "covariant_b_square",
          lambda a, cls: np.sum(a.cov_B**2, axis=(1, 2, 3))
          - 2.0 * a.grid.shape[1] * cls.lambda_estimate,
          (_ISOTROPIC,)),
    Check("log_rho_laplacian", "conformal-coordinate identity for the Laplacian of log rho",
          "log_rho_identity", _log_rho_laplacian, (_ISOTROPIC,)),
    Check("log_rho_trace_identity", "trace identity for the Laplacian of log rho",
          "log_rho_identity", _log_rho_trace_identity, (_ISOTROPIC,)),
    Check("parallel_b_iff_lambda_zero",
          "parallel second fundamental form iff vanishing eigenvalue",
          "classification", _parallel_b_iff_lambda_zero, (_ISOTROPIC,)),
    Check("rho_square_bound", "upper bound rho^2 < 1/(2 lambda) for positive eigenvalue",
          "classification",
          lambda a, cls: np.maximum(a.rho**2 - 1.0 / (2.0 * cls.lambda_estimate), 0.0),
          (_ISOTROPIC, ("vacuous (lambda ~ 0)",
                        lambda a, cls: cls.lambda_estimate > Tolerances.classification))),
    Check("isoparametric_curvature_sum",
          "weighted sectional-curvature sums vanish on isoparametric inputs",
          "covariant_identity", _isoparametric_curvature_sum,
          (("requires n >= 3", lambda a, cls: a.grid.shape[1] >= 3), _ISOPARAMETRIC)),
    Check("b_cross_agreement", "closed-form vs structure-equation second fundamental form",
          "b_cross_agreement",
          lambda a, cls:
          a.B_structural - np.einsum("mi,ij->mij", a.b, np.eye(a.grid.shape[1]))),
    Check("structure_equation", "second-derivative frame decomposition",
          "structure_equation", _structure_equation),
    Check("curvature_antisymmetry", "index antisymmetries of the curvature tensor",
          "curvature_antisymmetry", lambda a, cls: np.maximum(
              np.abs(a.riemann_frame + np.swapaxes(a.riemann_frame, 1, 2)),
              np.abs(a.riemann_frame + np.swapaxes(a.riemann_frame, 3, 4)))),
    Check("curvature_relation", "curvature tensor expressed through the Laguerre tensor",
          "curvature_relation", _curvature_relation),
    Check("isotropic_curvature_form", "constant-curvature form of the invariant metric",
          "isotropic_curvature_form", _isotropic_curvature_form, (_ISOTROPIC,)),
    Check("eigenvalue_sign", "nonnegativity of the tensor eigenvalue on isotropic inputs",
          "prop_two_sign", lambda a, cls: max(0.0, -cls.lambda_estimate), (_ISOTROPIC,)),
    Check("isotropic_isoparametric_lambda_zero",
          "isotropic + isoparametric forces a vanishing eigenvalue",
          "classification", lambda a, cls: abs(cls.lambda_estimate),
          (_ISOTROPIC, _ISOPARAMETRIC)),
    Check("l_closed_form", "closed form of the tensor vs the structural one",
          "l_closed_form", _l_closed_form),
    Check("c_cross_agreement", "closed-form vs structure-equation Laguerre form",
          "c_cross_agreement", lambda a, cls: a.C_structural - a.C_closed),
)


def _analysed(chart: Chart, grid: np.ndarray, **descriptor):
    """The report of one ``analyze`` of ``grid`` on ``chart``, each point it
    gives a ``reason`` an error entry, with the analysis and classification
    of the regular points; (report, None) after a warning if fewer than two
    are regular.  ``descriptor`` gives the report's ``chart``."""
    report = PropertyReport(chart=descriptor, grid=_grid_descriptor(grid),
                            orientation="analytic-normal")
    a = analyze(chart, grid)
    report.errors.extend(_point_errors(grid, a.reason))
    if len(a.grid) < 2:
        report.warnings.append(
            "fewer than two curvature-regular grid points; no checks executed"
        )
        return report, None
    cls = classify_analysis(a)
    report.classification = cls.to_dict()
    report.analysis = a
    return report, (a, cls)


def run_suite(chart: Chart, grid: np.ndarray) -> PropertyReport:
    """Run every check of ``CHECKS`` on one chart, skipping those whose hypotheses fail."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    report, analysed = _analysed(chart, grid, name=chart.name or "custom",
                                 params=chart.params, n=chart.n)
    if analysed:
        for check in CHECKS:
            report.run(check, *analysed)
    return report


def _identity_like(frob, a, maps, vbar, cls):
    c = maps.constants
    return np.allclose(c.cmat, np.eye(c.n)) and np.allclose(c.shift, 0.0) and abs(c.phi) < 1e-14


def _explicit_family_roundtrip(frob, a, maps, vbar, cls):
    reference = hilf_chart(HilfParams(a=tuple(1.0 / maps.constants.b)))
    return np.concatenate([maps.chart.evaluator(vbar) - reference.evaluator(vbar),
                           maps.chart.normal(vbar) - reference.normal(vbar)], axis=1)


_FROBENIUS = "integrability conditions of the curvature-line frame system"

# Context: frobenius_report's residuals, the analysis of the vbar grid, maps,
# vbar grid, classification.
CONSTRUCT_CHECKS = tuple(
    Check("frobenius_" + key, _FROBENIUS, "frobenius", lambda frob, *_, key=key: frob[key])
    for key in FROBENIUS_RESIDUALS
) + (
    Check("frobenius_pipeline_n_constancy", _FROBENIUS, "frobenius",
          lambda frob, a, *_: a.N - a.N.mean(axis=0)),
    Check("frobenius_pipeline_b_constancy", _FROBENIUS, "frobenius",
          lambda frob, a, maps, vbar, cls: cls.b_spread),
    Check("constructed_isotropic_lambda", "constructed immersion has vanishing tensor eigenvalue",
          "classification", lambda frob, a, maps, vbar, cls: abs(cls.lambda_estimate)),
    Check("constructed_b_roundtrip",
          "recovered Laguerre principal curvatures match the input constants",
          "classification",
          # b_hat is sorted; the chart's analytic normal fixes the orientation.
          lambda frob, a, maps, vbar, cls:
          float(np.max(np.abs(cls.b_hat - np.sort(maps.constants.b))))),
    Check("explicit_family_roundtrip", "identity-matrix constants reproduce the explicit family",
          "construction_roundtrip", _explicit_family_roundtrip,
          (("requires the identity matrix, cancelled shifts and phi = 0", _identity_like),)),
)


def construct_suite(constants: ConstructionConstants, grid: np.ndarray) -> PropertyReport:
    """Run ``CONSTRUCT_CHECKS`` on the immersion built from ``constants``,
    whose chart is analysed once, on the vbar grid sqrt(2) grid b of the
    v-grid ``grid``, as ``run_suite`` analyses its grid: the report's grid
    is the vbar grid, each irregular vbar point is an error entry, and the
    checks run on the other points."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    maps = build_immersion(constants)
    vbar = np.sqrt(2.0) * grid * constants.b
    report, analysed = _analysed(maps.chart, vbar, name="constructed",
                                 params=constants.to_json_dict(), n=constants.n)
    if analysed:
        a, cls = analysed
        context = (frobenius_report(maps, grid), a, maps, vbar, cls)
        for check in CONSTRUCT_CHECKS:
            report.run(check, *context)
    return report


def _model_context(deg: DegenerateChart, grid: np.ndarray) -> SimpleNamespace:
    """x, dx and xi of the model, each map evaluated once on the degree-1
    seeds of ``grid``, with I = <dx, dx>, II = -<dx, dxi> and III = II
    I^-1 II; ImmersionError where one of x, dx, xi, dxi, I and II is not
    finite, or I is singular (on a wide grid, (a u)^2 + 1 - (a u)^2
    rounds to 0)."""
    U = taylor.variables(grid, 1)
    (x, dx), (xi, dxi) = deg.x_map(U).partials(), deg.xi_map(U).partials()
    signs = minkowski_signs(deg.n)
    I = np.einsum("mia,a,mja->mij", dx, signs, dx)
    II = -np.einsum("mia,a,mja->mij", dx, signs, dxi)
    _require_finite("the degenerate model", x, dx, xi, dxi, I, II)
    try:
        III = II @ np.linalg.solve(I, II)
    except np.linalg.LinAlgError as exc:
        raise ImmersionError("the degenerate model's first fundamental form is singular") from exc
    nu = np.zeros(signs.size)
    nu[0] = nu[-1] = 1.0
    return SimpleNamespace(signs=signs, nu=nu, x=x, dx=dx, xi=xi, I=I, II=II, III=III,
                           coeffs=HilfParams(**deg.params).coeffs)


def _require_finite(what: str, *arrays) -> None:
    """Raise ImmersionError, naming ``what``, unless every value of
    ``arrays`` is finite."""
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ImmersionError(f"{what} is not finite at a sampled point")


def _rho_square_constant(m):
    # rho^2 at each point from the radii of III^-1 II; its spread must vanish.
    _, rho = radius_traces(m.II, m.III)
    r_i = 1.0 / m.coeffs
    rho2 = float(np.sum((float(np.mean(r_i)) - r_i) ** 2))
    return float(np.ptp(rho**2)), f"rho^2 = {rho2!r} from constant radii"


_CONSTRAINT = "defining constraints of the lightlike normal"

# Context: the model's ``_model_context``.
MODEL_CHECKS = (
    Check("position_in_hyperplane", _CONSTRAINT, "model_constraints",
          lambda m: dot(m.signs, m.x, m.nu)),
    Check("normal_lightlike", _CONSTRAINT, "model_constraints",
          lambda m: dot(m.signs, m.xi, m.xi)),
    Check("normal_nu_pairing", _CONSTRAINT, "model_constraints",
          lambda m: dot(m.signs, m.xi, m.nu) - 1.0),
    Check("normal_tangency", _CONSTRAINT, "model_constraints",
          lambda m: dot(m.signs, m.dx, m.xi[:, None, :])),
    Check("first_form_euclidean", "first fundamental form is the flat Euclidean metric",
          "model_constraints", lambda m: m.I - np.eye(m.I.shape[-1])),
    Check("second_form_diagonal", "second fundamental form is the constant diagonal of the model",
          "model_constraints", lambda m: m.II - np.diag(m.coeffs)),
    Check("rho_square_constant", "constant squared deviation of the curvature radii",
          "rho_constancy", _rho_square_constant),
)


def _model_report(deg: DegenerateChart, grid: np.ndarray):
    """The ``MODEL_CHECKS`` report and the context it ran on."""
    report = PropertyReport(
        chart={"name": "degenerate-hilf", "params": deg.params, "n": deg.n},
        grid=_grid_descriptor(grid),
        orientation="constraint-solved normal",
    )
    m = _model_context(deg, grid)
    for check in MODEL_CHECKS:
        report.run(check, m)
    report.warnings.append(
        "normal field solved from its defining constraints; a printed "
        "variant failing them is not reproduced"
    )
    return report, m


def degenerate_model_report(deg: DegenerateChart, grid: np.ndarray) -> PropertyReport:
    """Run ``MODEL_CHECKS`` on the degenerate-hyperplane model chart.

    The lightlike normal must satisfy its defining constraints to
    machine precision, the fundamental forms are the Euclidean identity
    and diag(a), and the curvature radii (hence rho) are constant.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    return _model_report(deg, grid)[0]


# Context: the model's image (x, xi) under tau, the explicit family, grid.
TAU_CHECKS = (
    Check("tau_position_equivalence", "the degenerate model maps onto the explicit family",
          "tau_equivalence", lambda image, euclid, grid: image[0] - euclid.evaluator(grid)),
    Check("tau_normal_equivalence", "the mapped normal matches the explicit family normal",
          "tau_equivalence", lambda image, euclid, grid: image[1] - euclid.normal(grid)),
)


def tau_suite(deg: DegenerateChart, grid: np.ndarray) -> PropertyReport:
    """``MODEL_CHECKS``, then ``TAU_CHECKS`` on the model's x and xi
    mapped once by tau."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    report, m = _model_report(deg, grid)
    image = laguerre_immersion_tau(m.x, m.xi)
    _require_finite("the image under tau", *image)
    context = (image, hilf_chart(HilfParams(**deg.params)), grid)
    for check in TAU_CHECKS:
        report.run(check, *context)
    return report
