"""Full property suite over a chart, with a structured pass/fail report.

Every check is a worst-case residual over the grid compared against a
named tolerance.  The checks form one table, ``CHECKS``, that
``run_suite`` walks in report order; each row names the check, its
anchor in the theory, its ``Tolerances`` field, its hypotheses and its
residual.  Conditional checks whose hypotheses fail on the given chart
are reported as *skipped* with the hypothesis named, never as vacuous
passes.  Grid points violating the curvature-regularity preconditions
become per-point error entries and the suite continues on the remaining
points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Callable, Optional

import numpy as np

from .charts import (
    Chart,
    forms_arrays,
    irregular_masks,
    jet_arrays,
    principal_arrays,
    radius_traces,
)
from .errors import InputError
from .families import DegenerateChart
from .frames import LiftBatch, lift_arrays
from .invariants import (
    Analysis,
    DEFAULT_STEPS,
    FieldSteps,
    analyze,
    classify_analysis,
)

__all__ = [
    "Tolerances",
    "Check",
    "CHECKS",
    "CheckRecord",
    "PropertyReport",
    "run_suite",
    "two_curvature_check",
    "degenerate_model_report",
]


@dataclass(frozen=True)
class Tolerances:
    """Named tolerances, one per check family (all positive)."""

    frame_relations: float = 1e-6
    b_identities: float = 1e-9
    trace_identity: float = 1e-4
    covariant_identity: float = 1e-4
    b_cross_agreement: float = 1e-5
    structure_equation: float = 1e-3
    curvature_antisymmetry: float = 1e-10
    curvature_relation: float = 1e-3
    isotropic_curvature_form: float = 1e-4
    covariant_b_square: float = 1e-4
    log_rho_identity: float = 1e-5
    classification: float = 1e-5
    prop_two_sign: float = 1e-6
    l_variant: float = 1e-3
    two_curvature: float = 1e-6
    tau_equivalence: float = 1e-12
    construction_roundtrip: float = 1e-9
    frobenius: float = 1e-6
    model_constraints: float = 1e-12
    rho_constancy: float = 1e-8

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not value > 0:
                raise ValueError(f"tolerance {name} must be positive")


@dataclass(frozen=True)
class CheckRecord:
    """One executed (or skipped) check of the suite."""

    name: str
    anchor: str
    residual: Optional[float]
    tolerance: Optional[float]
    status: str            # "pass" | "fail" | "skip"
    note: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "status": self.status,
            "note": self.note,
        }


@dataclass
class PropertyReport:
    """Deterministic suite outcome for one chart and grid."""

    chart: dict
    grid: dict
    orientation: str
    checks: list = field(default_factory=list)
    classification: Optional[dict] = None
    l_variant: Optional[dict] = None
    warnings: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    # carried for callers that sample further; never serialized
    analysis: Optional[Analysis] = field(default=None, repr=False, compare=False)

    def add(self, name, anchor, residual, tolerance, note=""):
        status = "pass" if residual <= tolerance else "fail"
        self.checks.append(
            CheckRecord(name, anchor, float(residual), float(tolerance), status, note)
        )

    def skip(self, name, anchor, reason):
        self.checks.append(CheckRecord(name, anchor, None, None, "skip", reason))

    @property
    def passed(self) -> bool:
        executed = [c for c in self.checks if c.status != "skip"]
        if not executed:
            return False
        return all(c.status == "pass" for c in executed)

    def to_dict(self) -> dict:
        return {
            "chart": self.chart,
            "grid": self.grid,
            "orientation": self.orientation,
            "checks": [c.to_dict() for c in self.checks],
            "classification": self.classification,
            "l_variant": self.l_variant,
            "warnings": self.warnings,
            "errors": self.errors,
            "passed": self.passed,
        }


def _grid_descriptor(grid: np.ndarray) -> dict:
    return {
        "points": int(grid.shape[0]),
        "dimension": int(grid.shape[1]),
        "min": [float(v) for v in grid.min(axis=0)],
        "max": [float(v) for v in grid.max(axis=0)],
    }


def _regularity_mask(chart: Chart, grid: np.ndarray):
    """Mask of curvature-regular grid points, with reasons for the rest."""
    x, dx, ddx, xi = jet_arrays(chart, grid)
    I, II, _ = forms_arrays(dx, ddx, xi)
    k, _ = principal_arrays(I, II)
    umbilic, vanishing = irregular_masks(k)
    errors = []
    for idx in np.nonzero(umbilic)[0]:
        errors.append(
            {"index": int(idx), "point": [float(v) for v in grid[idx]],
             "reason": "umbilic point"}
        )
    for idx in np.nonzero(vanishing & ~umbilic)[0]:
        errors.append(
            {"index": int(idx), "point": [float(v) for v in grid[idx]],
             "reason": "vanishing principal curvature"}
        )
    return ~(umbilic | vanishing), errors


def _cluster_breaks(k: np.ndarray, rel_tol: float = 1e-4) -> np.ndarray:
    """Where descending curvature rows split into near-equal clusters.

    ``breaks[m, j]`` is True when k[m, j] and k[m, j + 1] fall in
    different clusters; NaN gaps count as breaks.
    """
    scale = np.max(np.abs(k), axis=-1, keepdims=True)
    return ~(-np.diff(k, axis=-1) <= rel_tol * scale)


def _two_curvature(lift: LiftBatch) -> dict:
    """``two_curvature_check`` on a lift already evaluated at the grid."""
    n = lift.b.shape[1]
    breaks = _cluster_breaks(lift.k)
    clusters = int(np.sum(breaks[0])) + 1
    if clusters != 2:
        raise InputError(
            f"expected exactly two distinct principal curvatures, found {clusters}"
        )
    if np.any(breaks != breaks[0]):
        raise InputError("curvature multiplicities vary across the grid")

    def targets(m):
        b1 = np.sqrt((n - m) / (m * n))
        b2 = -np.sqrt(m / (n * (n - m)))
        return np.sort(np.concatenate([np.full(m, b1), np.full(n - m, b2)]))[::-1]

    b_desc = -np.sort(-lift.b, axis=1)
    m1 = int(np.argmax(breaks[0])) + 1
    dist_direct = np.max(np.abs(b_desc - targets(m1)[None, :]))
    # A normal flip negates every b_i and swaps the cluster roles.
    flipped_desc = -np.sort(lift.b, axis=1)
    dist_flipped = np.max(np.abs(flipped_desc - targets(n - m1)[None, :]))
    residual = float(min(dist_direct, dist_flipped))
    spread = float(np.max(np.ptp(np.sort(lift.b, axis=1), axis=0)))
    return {
        "residual": residual,
        "constancy": spread,
        "multiplicity": int(m1 if dist_direct <= dist_flipped else n - m1),
        "targets": [float(v) for v in targets(m1)],
    }


def two_curvature_check(chart: Chart, grid: np.ndarray) -> dict:
    """Distance of the computed Laguerre principal curvatures from the
    two-curvature constants sqrt((n-m)/(mn)) and -sqrt(m/(n(n-m))).

    Requires exactly two distinct principal-curvature clusters with the
    same multiplicities at every grid point.  The distance is minimised
    over the two orientation assignments (a normal flip negates every
    b_i and swaps the cluster roles).
    """
    return _two_curvature(lift_arrays(chart, np.atleast_2d(np.asarray(grid, dtype=float))))


def _l_variant(a: Analysis, tol: Tolerances) -> dict:
    """Arbitration between the two closed forms of the tensor."""
    L = a.L_structural
    scale = max(1.0, float(np.max(np.abs(L))))
    dev_a = float(np.max(np.abs(a.L_closed_a - L))) / scale
    dev_b = float(np.max(np.abs(a.L_closed_b - L))) / scale
    match_a = dev_a <= tol.l_variant
    match_b = dev_b <= tol.l_variant
    matched = "closed_a" if match_a and not match_b else (
        "closed_b" if match_b and not match_a else ("both" if match_a else "none")
    )
    return {
        "matched": matched,
        "deviation_a": dev_a,
        "deviation_b": dev_b,
        "tolerance": tol.l_variant,
    }


def _log_rho_laplacian(a, cls, tol):
    # Last coordinate of Delta_g Y = 2 n lambda Y + n alpha, converted
    # through the conformal rescaling g = rho^2 III.  The conversion
    # carries the gradient term and the alpha component; with the
    # gauge alpha^(n+4) = 0 and grad rho = 0 it collapses to the bare
    # Delta_III log rho = 2 n lambda rho^2.
    n = a.grid.shape[1]
    rho = a.lift.rho
    coord_res = (
        a.laplace_iii_logrho
        + (n - 1) * a.grad_iii_logrho_sq
        - 2.0 * n * cls.lambda_estimate * rho**2
        - n * rho * cls.alpha[-1]
    )
    return float(np.max(np.abs(coord_res)))


def _log_rho_trace_identity(a, cls, tol):
    # Trace of the closed form of L with L = lambda I (gauge-free).
    n = a.grid.shape[1]
    trace_res = (
        a.laplace_iii_logrho
        + 0.5 * (n - 2) * a.grad_iii_logrho_sq
        - 0.5 * n
        - n * cls.lambda_estimate * a.lift.rho**2
    )
    return float(np.max(np.abs(trace_res)))


def _parallel_b_iff_lambda_zero(a, cls, tol):
    lam = cls.lambda_estimate
    grad_b = float(np.max(np.abs(a.cov_B)))
    consistent = (grad_b <= 10 * tol.classification) == (abs(lam) <= tol.classification)
    residual = 0.0 if consistent else max(grad_b, abs(lam))
    return residual, f"max|B_ij,k|={grad_b:.3e}, lambda={lam:.3e}"


def _isoparametric_curvature_sum(a, cls, tol):
    """max_i |sum_j R_ijij / (b_i - b_j)| over the j in other curvature clusters.

    Cartan's identity sums over the other distinct curvature values, each
    as often as it repeats, so pairs inside a cluster drop out.
    """
    b = a.lift.b
    cluster = np.cumsum(np.pad(_cluster_breaks(a.lift.k), ((0, 0), (1, 0))), axis=1)
    sectional = np.einsum("mijij->mij", a.metric.riemann_frame)
    terms = np.divide(
        sectional, b[:, :, None] - b[:, None, :], out=np.zeros_like(sectional),
        where=cluster[:, :, None] != cluster[:, None, :],
    )
    total = np.zeros_like(b)
    for j in range(b.shape[1]):  # in j order, not numpy's pairwise summation order
        total += terms[:, :, j]
    return float(np.max(np.abs(total)))


def _curvature_relation(a, cls, tol):
    L = a.L_structural
    eye = np.eye(a.grid.shape[1])
    rhs = (
        np.einsum("mjk,il->mijkl", L, eye)
        + np.einsum("mil,jk->mijkl", L, eye)
        - np.einsum("mik,jl->mijkl", L, eye)
        - np.einsum("mjl,ik->mijkl", L, eye)
    )
    return np.max(np.abs(a.metric.riemann_frame - rhs))


def _isotropic_curvature_form(a, cls, tol):
    eye = np.eye(a.grid.shape[1])
    iso_form = 2.0 * cls.lambda_estimate * (
        np.einsum("jk,il->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
    )
    return np.max(np.abs(a.metric.riemann_frame - iso_form[None]))


def _l_variant_unique(a, cls, tol):
    record = _l_variant(a, tol)
    dev_a, dev_b = record["deviation_a"], record["deviation_b"]
    if record["matched"] in ("closed_a", "closed_b"):
        residual = min(dev_a, dev_b)
    else:
        residual = max(dev_a, dev_b, tol.l_variant * 2)
    return residual, f"matched variant: {record['matched']}"


def _two_curvature_constants(a, cls, tol):
    two = _two_curvature(a.lift)
    return max(two["residual"], two["constancy"]), f"multiplicity m={two['multiplicity']}"


@dataclass(frozen=True)
class Check:
    """One row of the suite: a residual over the grid against a named tolerance.

    ``tolerance`` names a field of ``Tolerances``.  ``residual(analysis,
    classification, tolerances)`` returns the worst residual, or a
    ``(residual, note)`` pair; an ``InputError`` it raises skips the check
    with its message.  ``requires`` holds ``(note, predicate)`` pairs
    taking the same arguments: the first predicate that fails skips the
    check with its note.
    """

    name: str
    anchor: str
    tolerance: str
    residual: Callable
    requires: tuple = ()


_ISOTROPIC = ("requires isotropic input", lambda a, cls, tol: cls.is_isotropic)
_ISOPARAMETRIC = ("requires isoparametric input", lambda a, cls, tol: cls.is_isoparametric)
_FRAME = "lightlike lift pairings and tangent-frame orthonormality"

CHECKS = (
    Check("position_lightlike", _FRAME, "frame_relations",
          lambda a, cls, tol: np.max(np.abs(a.lift.space.dot(a.lift.Y, a.lift.Y)))),
    Check("n_vector_lightlike", _FRAME, "frame_relations",
          lambda a, cls, tol: np.max(np.abs(a.lift.space.dot(a.N, a.N)))),
    Check("position_n_pairing", _FRAME, "frame_relations",
          lambda a, cls, tol: np.max(np.abs(a.lift.space.dot(a.lift.Y, a.N) + 1.0))),
    Check("normal_map_lightlike", _FRAME, "frame_relations",
          lambda a, cls, tol: np.max(np.abs(a.lift.space.dot(a.lift.eta, a.lift.eta)))),
    Check("normal_map_p_pairing", _FRAME, "frame_relations",
          lambda a, cls, tol: np.max(np.abs(a.lift.eta[:, 0] + a.lift.eta[:, 1] - 1.0))),
    Check("position_normal_orthogonal", _FRAME, "frame_relations",
          lambda a, cls, tol: np.max(np.abs(a.lift.space.dot(a.lift.Y, a.lift.eta)))),
    Check("tangent_orthonormality", _FRAME, "frame_relations",
          lambda a, cls, tol: np.max(np.abs(
              np.einsum("mil,l,mjl->mij", a.E_Y, a.lift.space.signs, a.E_Y)
              - np.eye(a.grid.shape[1])))),
    Check("b_trace_zero", "trace-free second fundamental form", "b_identities",
          lambda a, cls, tol: float(np.max(np.abs(a.lift.b.sum(axis=1))))),
    Check("b_square_one", "unit square-norm of the second fundamental form", "b_identities",
          lambda a, cls, tol: float(np.max(np.abs((a.lift.b**2).sum(axis=1) - 1.0)))),
    Check("l_trace_laplacian", "trace of the tensor vs the squared Laplacian of the lift",
          "trace_identity",
          lambda a, cls, tol: float(np.max(np.abs(
              np.trace(a.L_structural, axis1=-2, axis2=-1)
              + a.lift.space.dot(a.delta_y, a.delta_y) / (2.0 * a.grid.shape[1]))))),
    Check("covariant_b_contraction", "contracted covariant derivative of B equals (n-1) C",
          "covariant_identity",
          lambda a, cls, tol: float(np.max(np.abs(
              np.einsum("miji->mj", a.cov_B) - (a.grid.shape[1] - 1) * a.C_closed)))),
    Check("covariant_b_square", "squared covariant derivative of B equals 2 n lambda",
          "covariant_b_square",
          lambda a, cls, tol: float(np.max(np.abs(
              np.sum(a.cov_B**2, axis=(1, 2, 3))
              - 2.0 * a.grid.shape[1] * cls.lambda_estimate))),
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
          lambda a, cls, tol: max(
              float(np.max(a.lift.rho**2 - 1.0 / (2.0 * cls.lambda_estimate))), 0.0),
          (_ISOTROPIC, ("vacuous (lambda ~ 0)",
                        lambda a, cls, tol: cls.lambda_estimate > tol.classification))),
    Check("isoparametric_curvature_sum",
          "weighted sectional-curvature sums vanish on isoparametric inputs",
          "covariant_identity", _isoparametric_curvature_sum,
          (("requires n >= 3", lambda a, cls, tol: a.grid.shape[1] >= 3), _ISOPARAMETRIC)),
    Check("b_cross_agreement", "closed-form vs structure-equation second fundamental form",
          "b_cross_agreement",
          lambda a, cls, tol: np.max(np.abs(
              a.B_structural - np.einsum("mi,ij->mij", a.lift.b, np.eye(a.grid.shape[1]))))),
    Check("structure_equation", "second-derivative frame decomposition",
          "structure_equation", lambda a, cls, tol: a.structure_residual()),
    Check("curvature_antisymmetry", "index antisymmetries of the curvature tensor",
          "curvature_antisymmetry", lambda a, cls, tol: a.metric.antisymmetry_residual()),
    Check("curvature_relation", "curvature tensor expressed through the Laguerre tensor",
          "curvature_relation", _curvature_relation),
    Check("isotropic_curvature_form", "constant-curvature form of the invariant metric",
          "isotropic_curvature_form", _isotropic_curvature_form, (_ISOTROPIC,)),
    Check("eigenvalue_sign", "nonnegativity of the tensor eigenvalue on isotropic inputs",
          "prop_two_sign", lambda a, cls, tol: max(0.0, -cls.lambda_estimate), (_ISOTROPIC,)),
    Check("isotropic_isoparametric_lambda_zero",
          "isotropic + isoparametric forces a vanishing eigenvalue",
          "classification", lambda a, cls, tol: abs(cls.lambda_estimate),
          (_ISOTROPIC, _ISOPARAMETRIC)),
    Check("l_variant_unique", "exactly one closed form of the tensor matches the structural one",
          "l_variant", _l_variant_unique),
    Check("two_curvature_constants",
          "constant Laguerre principal curvatures for two-curvature inputs",
          "two_curvature", _two_curvature_constants),
)


def run_suite(
    chart: Chart,
    grid: np.ndarray,
    tol: Tolerances = Tolerances(),
    steps: FieldSteps = DEFAULT_STEPS,
) -> PropertyReport:
    """Run every check of ``CHECKS`` on one chart, skipping those whose hypotheses fail."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    report = PropertyReport(
        chart={"name": chart.name or "custom", "params": chart.params, "n": chart.n},
        grid=_grid_descriptor(grid),
        orientation=chart.orientation,
    )

    mask, point_errors = _regularity_mask(chart, grid)
    report.errors.extend(point_errors)
    valid = grid[mask]
    if valid.shape[0] < 2:
        report.warnings.append(
            "fewer than two curvature-regular grid points; no checks executed"
        )
        return report

    a = analyze(chart, valid, steps)
    cls = classify_analysis(a, tol.classification)
    report.classification = cls.to_dict()
    report.analysis = a
    for check in CHECKS:
        skip = next((note for note, holds in check.requires if not holds(a, cls, tol)), None)
        if skip is None:
            try:
                value = check.residual(a, cls, tol)
            except InputError as exc:
                skip = str(exc)
        if skip is not None:
            report.skip(check.name, check.anchor, skip)
            continue
        residual, note = value if isinstance(value, tuple) else (value, "")
        report.add(check.name, check.anchor, residual, getattr(tol, check.tolerance), note)

    report.l_variant = _l_variant(a, tol)
    if report.l_variant["matched"] == "closed_b":
        report.warnings.append(
            "structural tensor matched the variant without the constant "
            "offset; see arbitration record"
        )
    return report


def degenerate_model_report(deg: DegenerateChart, grid: np.ndarray,
                            tol: Tolerances = Tolerances()) -> PropertyReport:
    """Checks specific to the degenerate-hyperplane model chart.

    The lightlike normal must satisfy its three defining constraints to
    machine precision, the fundamental forms are the Euclidean identity
    and diag(a), and the curvature radii (hence rho) are constant.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    report = PropertyReport(
        chart={"name": "degenerate-hilf", "params": deg.params, "n": deg.n},
        grid=_grid_descriptor(grid),
        orientation="constraint-solved normal",
    )
    res = deg.constraint_residuals(grid)
    anchor = "defining constraints of the lightlike normal"
    for name, value in res.items():
        report.add(name, anchor, value, tol.model_constraints)

    I, II = deg.fundamental_forms(grid)
    n = deg.n
    coeffs = np.asarray(deg.params["a"], dtype=float)
    coeffs = np.repeat(coeffs, deg.params.get("multiplicities", [1] * len(coeffs)))
    report.add(
        "first_form_euclidean",
        "first fundamental form is the flat Euclidean metric",
        np.max(np.abs(I - np.eye(n))),
        tol.model_constraints,
    )
    report.add(
        "second_form_diagonal",
        "second fundamental form is the constant diagonal of the model",
        np.max(np.abs(II - np.diag(coeffs))),
        tol.model_constraints,
    )
    # rho^2 at each point from the radii of III^-1 II; its spread must vanish.
    _, rho, _ = radius_traces(I, II, II @ np.linalg.solve(I, II))
    r_i = 1.0 / coeffs
    r = float(np.mean(r_i))
    rho2 = float(np.sum((r - r_i) ** 2))
    report.add(
        "rho_square_constant",
        "constant squared deviation of the curvature radii",
        float(np.ptp(rho**2)),
        tol.rho_constancy,
        note=f"rho^2 = {rho2!r} from constant radii",
    )
    report.warnings.append(
        "normal field solved from its defining constraints; a printed "
        "variant failing them is not reproduced"
    )
    return report
