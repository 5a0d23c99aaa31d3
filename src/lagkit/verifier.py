"""Full property suite over a chart, with a structured pass/fail report.

Every check is a worst-case residual over the grid compared against a
named tolerance.  Conditional checks whose hypotheses fail on the given
chart are reported as *skipped* with the hypothesis named, never as
vacuous passes.  Grid points violating the curvature-regularity
preconditions become per-point error entries and the suite continues on
the remaining points.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import Optional

import numpy as np

from .charts import (
    Chart,
    forms_arrays,
    frame_scalars,
    irregular_masks,
    jet_arrays,
    principal_arrays,
)
from .errors import InputError
from .families import DegenerateChart
from .invariants import (
    Analysis,
    DEFAULT_STEPS,
    FieldSteps,
    identity_suite,
)

__all__ = [
    "Tolerances",
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


def two_curvature_check(chart: Chart, grid: np.ndarray) -> dict:
    """Distance of the computed Laguerre principal curvatures from the
    two-curvature constants sqrt((n-m)/(mn)) and -sqrt(m/(n(n-m))).

    Requires exactly two distinct principal-curvature clusters with the
    same multiplicities at every grid point.  The distance is minimised
    over the two orientation assignments (a normal flip negates every
    b_i and swaps the cluster roles).
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    from .frames import lift_arrays

    lift = lift_arrays(chart, grid)
    n = chart.n
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


def run_suite(
    chart: Chart,
    grid: np.ndarray,
    tol: Tolerances = Tolerances(),
    steps: FieldSteps = DEFAULT_STEPS,
) -> PropertyReport:
    """Run every applicable check of the invariant theory on one chart."""
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

    entries, cls, a = identity_suite(chart, valid, tol.classification, steps)
    mf = a.metric
    lift = a.lift
    space = lift.space
    report.classification = cls.to_dict()
    report.analysis = a

    # Frame pairing relations of the lift.
    anchor_frame = "lightlike lift pairings and tangent-frame orthonormality"
    gram = np.einsum("mil,l,mjl->mij", a.E_Y, space.signs, a.E_Y)
    n = chart.n
    frame_residuals = {
        "position_lightlike": np.max(np.abs(space.dot(lift.Y, lift.Y))),
        "n_vector_lightlike": np.max(np.abs(space.dot(a.N, a.N))),
        "position_n_pairing": np.max(np.abs(space.dot(lift.Y, a.N) + 1.0)),
        "normal_map_lightlike": np.max(np.abs(space.dot(lift.eta, lift.eta))),
        "normal_map_p_pairing": np.max(np.abs(lift.eta[:, 0] + lift.eta[:, 1] - 1.0)),
        "position_normal_orthogonal": np.max(np.abs(space.dot(lift.Y, lift.eta))),
        "tangent_orthonormality": np.max(np.abs(gram - np.eye(n))),
    }
    for name, res in frame_residuals.items():
        report.add(name, anchor_frame, res, tol.frame_relations)

    # Identity suite entries.
    anchor_map = {
        "b_trace_zero": ("trace-free second fundamental form", tol.b_identities),
        "b_square_one": ("unit square-norm of the second fundamental form", tol.b_identities),
        "l_trace_laplacian": (
            "trace of the tensor vs the squared Laplacian of the lift",
            tol.trace_identity,
        ),
        "covariant_b_contraction": (
            "contracted covariant derivative of B equals (n-1) C",
            tol.covariant_identity,
        ),
        "covariant_b_square": (
            "squared covariant derivative of B equals 2 n lambda",
            tol.covariant_b_square,
        ),
        "log_rho_laplacian": (
            "conformal-coordinate identity for the Laplacian of log rho",
            tol.log_rho_identity,
        ),
        "log_rho_trace_identity": (
            "trace identity for the Laplacian of log rho",
            tol.log_rho_identity,
        ),
        "parallel_b_iff_lambda_zero": (
            "parallel second fundamental form iff vanishing eigenvalue",
            tol.classification,
        ),
        "rho_square_bound": (
            "upper bound rho^2 < 1/(2 lambda) for positive eigenvalue",
            tol.classification,
        ),
        "isoparametric_curvature_sum": (
            "weighted sectional-curvature sums vanish on isoparametric inputs",
            tol.covariant_identity,
        ),
    }
    for entry in entries:
        anchor, tolerance = anchor_map[entry.name]
        if entry.skipped:
            report.skip(entry.name, anchor, entry.note)
        else:
            report.add(entry.name, anchor, entry.residual, tolerance, entry.note)

    # Cross-oracle agreement and the structure equations.
    b_diag = np.einsum("mi,ij->mij", lift.b, np.eye(n))
    report.add(
        "b_cross_agreement",
        "closed-form vs structure-equation second fundamental form",
        np.max(np.abs(a.B_structural - b_diag)),
        tol.b_cross_agreement,
    )
    report.add(
        "structure_equation",
        "second-derivative frame decomposition",
        a.structure_residual(),
        tol.structure_equation,
    )

    # Curvature tensor of the invariant metric.
    report.add(
        "curvature_antisymmetry",
        "index antisymmetries of the curvature tensor",
        mf.antisymmetry_residual(),
        tol.curvature_antisymmetry,
    )
    L = a.L_structural
    eye = np.eye(n)
    rhs = (
        np.einsum("mjk,il->mijkl", L, eye)
        + np.einsum("mil,jk->mijkl", L, eye)
        - np.einsum("mik,jl->mijkl", L, eye)
        - np.einsum("mjl,ik->mijkl", L, eye)
    )
    report.add(
        "curvature_relation",
        "curvature tensor expressed through the Laguerre tensor",
        np.max(np.abs(mf.riemann_frame - rhs)),
        tol.curvature_relation,
    )
    if cls.is_isotropic:
        lam = cls.lambda_estimate
        iso_form = 2.0 * lam * (
            np.einsum("jk,il->ijkl", eye, eye) - np.einsum("ik,jl->ijkl", eye, eye)
        )
        report.add(
            "isotropic_curvature_form",
            "constant-curvature form of the invariant metric",
            np.max(np.abs(mf.riemann_frame - iso_form[None])),
            tol.isotropic_curvature_form,
        )
        report.add(
            "eigenvalue_sign",
            "nonnegativity of the tensor eigenvalue on isotropic inputs",
            max(0.0, -lam),
            tol.prop_two_sign,
        )
        if cls.is_isoparametric:
            report.add(
                "isotropic_isoparametric_lambda_zero",
                "isotropic + isoparametric forces a vanishing eigenvalue",
                abs(lam),
                tol.classification,
            )
    else:
        for name, anchor in (
            ("isotropic_curvature_form", "constant-curvature form of the invariant metric"),
            ("eigenvalue_sign", "nonnegativity of the tensor eigenvalue on isotropic inputs"),
            ("isotropic_isoparametric_lambda_zero",
             "isotropic + isoparametric forces a vanishing eigenvalue"),
        ):
            report.skip(name, anchor, "requires isotropic input")

    # Arbitration between the two closed forms of the tensor.
    scale = max(1.0, float(np.max(np.abs(L))))
    dev_a = float(np.max(np.abs(a.L_closed_a - L))) / scale
    dev_b = float(np.max(np.abs(a.L_closed_b - L))) / scale
    match_a = dev_a <= tol.l_variant
    match_b = dev_b <= tol.l_variant
    matched = "closed_a" if match_a and not match_b else (
        "closed_b" if match_b and not match_a else ("both" if match_a else "none")
    )
    report.l_variant = {
        "matched": matched,
        "deviation_a": dev_a,
        "deviation_b": dev_b,
        "tolerance": tol.l_variant,
    }
    report.add(
        "l_variant_unique",
        "exactly one closed form of the tensor matches the structural one",
        min(dev_a, dev_b) if (match_a != match_b) else max(dev_a, dev_b, tol.l_variant * 2),
        tol.l_variant,
        note=f"matched variant: {matched}",
    )

    # Two-curvature constants, when applicable.
    try:
        two = two_curvature_check(chart, valid)
        report.add(
            "two_curvature_constants",
            "constant Laguerre principal curvatures for two-curvature inputs",
            max(two["residual"], two["constancy"]),
            tol.two_curvature,
            note=f"multiplicity m={two['multiplicity']}",
        )
    except InputError as exc:
        report.skip(
            "two_curvature_constants",
            "constant Laguerre principal curvatures for two-curvature inputs",
            str(exc),
        )

    if matched == "closed_b":
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
    # rho^2 at each point from the radii of I^-1 II; its spread must vanish.
    _, _, rho = frame_scalars(principal_arrays(I, II)[0])
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
