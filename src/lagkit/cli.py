"""Command-line entry point.

Subcommands:

* ``catalog``    -- list the built-in surfaces,
* ``verify``     -- run the property suite on a surface,
* ``invariants`` -- dump per-point invariants as CSV plus the suite report,
* ``construct``  -- run the integration pipeline from constants and verify it,
* ``tau``        -- map the degenerate model chart into Euclidean space and
                    compare it pointwise with the explicit family.

All randomness flows from the single ``seed``; reports are JSON with
sorted keys so identical configurations produce byte-identical files
(timestamps are suppressed with ``--no-timestamp``).  Exit status: 0 if
every executed check passed, 1 if some check failed or stdout closed
early, 2 on bad input.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .charts import FdConfig
from .construction import (
    ConstructionConstants,
    b_from_curvatures,
    build_immersion,
    frobenius_report,
    random_orthogonal,
    validate_constants,
)
from .errors import LagkitError
from .families import (
    CATALOG,
    HilfParams,
    degenerate_example,
    hilf_chart,
    laguerre_immersion_tau,
)
from .invariants import analyze, classify_analysis
from .verifier import (
    PropertyReport,
    Tolerances,
    degenerate_model_report,
    run_suite,
)

SCHEMA_VERSION = 1


def _parse_list(text: str):
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_floats(text: str, flag: str):
    try:
        return [float(v) for v in _parse_list(text)]
    except ValueError as exc:
        raise LagkitError(f"{flag} takes comma-separated numbers: {exc}") from exc


def _is_real(value) -> bool:
    """Whether ``value`` is a finite JSON number (bool excluded)."""
    return type(value) in (int, float) and math.isfinite(value)


def _mesh(center, half_width, points, n):
    center = np.asarray(center, dtype=float)
    axes = [
        np.linspace(c - half_width, c + half_width, points) for c in center
    ]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise LagkitError(f"config file {path}: {exc}") from exc


def _resolve(args) -> dict:
    """Merge the config file (if any) with flag overrides."""
    cfg = {"surface": {}, "grid": {}, "fd": {}, "output": {}, "seed": 0}
    if getattr(args, "config", None):
        file_cfg = _load_config(args.config)
        if not isinstance(file_cfg, dict):
            raise LagkitError(f"config file {args.config}: not a JSON object")
        for key in list(cfg) + ["tolerances"]:
            if key in file_cfg:
                cfg[key] = file_cfg[key]
    for key in ("surface", "grid", "fd", "output"):
        if not isinstance(cfg[key], dict):
            raise LagkitError(f"config section {key!r} must be a JSON object")
    if getattr(args, "surface", None):
        cfg["surface"]["kind"] = args.surface
    if getattr(args, "a", None):
        params = cfg["surface"].setdefault("params", {})
        params["a"] = _parse_floats(args.a, "--a")
    if getattr(args, "phi", None) is not None:
        cfg["surface"].setdefault("params", {})["phi"] = args.phi
    if getattr(args, "params", None):
        try:
            params = json.loads(args.params)
        except json.JSONDecodeError as exc:
            raise LagkitError(f"--params is not valid JSON: {exc}") from exc
        if not isinstance(params, dict):
            raise LagkitError("--params must be a JSON object")
        cfg["surface"].setdefault("params", {}).update(params)
    if not isinstance(cfg["surface"].get("params", {}), dict):
        raise LagkitError("surface params must be a JSON object")
    if getattr(args, "grid", None) is not None:
        cfg["grid"]["points_per_axis"] = args.grid
    if getattr(args, "half_width", None) is not None:
        cfg["grid"]["half_width"] = args.half_width
    if getattr(args, "center", None):
        cfg["grid"]["center"] = _parse_floats(args.center, "--center")
    if getattr(args, "step", None) is not None:
        cfg["fd"]["step"] = args.step
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "out", None):
        cfg["output"]["report_path"] = args.out
    if getattr(args, "samples", None):
        cfg["output"]["samples_path"] = args.samples
    grid = cfg["grid"]
    points = grid.setdefault("points_per_axis", 5)
    if not (type(points) is int and points >= 3):
        raise LagkitError(f"grid needs an integer of at least 3 points per axis, got {points!r}")
    half_width = grid.setdefault("half_width", 0.4)
    if not (_is_real(half_width) and half_width > 0):
        raise LagkitError(f"half_width must be a positive finite number, got {half_width!r}")
    center = grid.get("center")
    if center is not None and not (isinstance(center, list) and all(map(_is_real, center))):
        raise LagkitError(f"grid center must be a list of finite numbers, got {center!r}")
    step = cfg["fd"].get("step")
    if step is not None and not (_is_real(step) and step > 0):
        raise LagkitError(f"fd step must be a positive finite number, got {step!r}")
    seed = cfg["seed"]
    if not (type(seed) is int and seed >= 0):
        raise LagkitError(f"seed must be a non-negative integer, got {seed!r}")
    return cfg


def _build_surface(cfg):
    surface = cfg.get("surface", {})
    kind = surface.get("kind", "hilf")
    params = dict(surface.get("params", {}))
    if not isinstance(kind, str) or kind not in CATALOG:
        raise LagkitError(f"unknown surface {kind!r}; see `lagkit catalog`")
    chart = CATALOG[kind](params)
    step = cfg.get("fd", {}).get("step")
    scheme = cfg.get("fd", {}).get("scheme")
    if (step or scheme) and hasattr(chart, "fd"):
        try:
            fdc = FdConfig(step=step or 1e-4, scheme=scheme or "central-4th-order")
        except ValueError as exc:
            raise LagkitError(f"fd config: {exc}") from exc
        chart = dataclasses.replace(chart, fd=fdc)
    return kind, chart


def _tolerances(cfg) -> Tolerances:
    overrides = cfg.get("tolerances", {})
    if not isinstance(overrides, dict):
        raise LagkitError("tolerances must be a JSON object")
    names = {f.name for f in dataclasses.fields(Tolerances)}
    for name, value in overrides.items():
        if name not in names:
            raise LagkitError(f"unknown tolerance name {name!r}")
        if not (_is_real(value) and value > 0):
            raise LagkitError(f"tolerance {name} must be a positive finite number, got {value!r}")
    return Tolerances(**overrides)


def _grid_for(chart_n: int, cfg) -> np.ndarray:
    grid_cfg = cfg["grid"]
    center = grid_cfg.get("center") or [0.0] * chart_n
    if len(center) != chart_n:
        raise LagkitError(
            f"grid center has {len(center)} coordinates for an n={chart_n} surface"
        )
    return _mesh(center, grid_cfg["half_width"], grid_cfg["points_per_axis"], chart_n)


def _write_report(report_dict: dict, cfg: dict, args) -> None:
    # output paths do not affect the computation; keeping them out of the
    # echo preserves byte-identical reports across directories
    echo = {k: v for k, v in cfg.items() if k != "output"}
    payload = {"schema_version": SCHEMA_VERSION, "config_echo": echo}
    payload.update(report_dict)
    if not args.no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    path = cfg.get("output", {}).get("report_path")
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def _print_summary(report: PropertyReport) -> None:
    for c in report.checks:
        res = "-" if c.residual is None else f"{c.residual:.3e}"
        print(f"[{c.status:4}] {c.name}: {res}  {c.note}")
    for err in report.errors:
        print(f"[err ] point {err['point']}: {err['reason']}")
    print(f"suite: {'PASS' if report.passed else 'FAIL'}")


def _write_samples(path, analysis) -> None:
    """Per-point invariants, one row per grid point, full precision."""
    lift = analysis.lift
    m, n = lift.u.shape
    header = (
        [f"u_{i+1}" for i in range(n)]
        + [f"x_{i+1}" for i in range(n + 1)]
        + [f"k_{i+1}" for i in range(n)]
        + ["rho", "r"]
        + [f"b_{i+1}" for i in range(n)]
        + [f"C_{i+1}" for i in range(n)]
        + [f"L_diag_{i+1}" for i in range(n)]
    )
    ldiag = np.diagonal(analysis.L_structural, axis1=-2, axis2=-1)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for p in range(m):
            row = (
                list(lift.u[p]) + list(lift.x[p]) + list(lift.k[p])
                + [lift.rho[p], lift.r[p]]
                + list(lift.b[p]) + list(analysis.C_closed[p]) + list(ldiag[p])
            )
            writer.writerow([repr(float(v)) for v in row])


def _cmd_catalog(args) -> int:
    for name in sorted(CATALOG):
        print(name)
    return 0


def _cmd_verify(args, want_samples=False) -> int:
    cfg = _resolve(args)
    kind, chart = _build_surface(cfg)
    tol = _tolerances(cfg)
    grid = _grid_for(chart.n, cfg)
    if kind == "degenerate-hilf":
        report = degenerate_model_report(chart, grid, tol)
    else:
        report = run_suite(chart, grid, tol)
    samples_path = cfg.get("output", {}).get("samples_path")
    if want_samples and samples_path:
        if report.analysis is None:
            raise LagkitError("no invariant samples available for this surface")
        _write_samples(samples_path, report.analysis)
    _write_report(report.to_dict(), cfg, args)
    _print_summary(report)
    return 0 if report.passed else 1


def _cmd_invariants(args) -> int:
    return _cmd_verify(args, want_samples=True)


def _load_constants(args, cfg) -> ConstructionConstants:
    if args.constants:
        try:
            with open(args.constants, "r", encoding="utf-8") as fh:
                return ConstructionConstants.from_json_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, LagkitError) as exc:
            raise LagkitError(f"constants file {args.constants}: {exc}") from exc
    if not args.b_from_a:
        raise LagkitError("construct needs --constants or --b-from-a")
    b = b_from_curvatures(_parse_list(args.b_from_a))
    n = b.shape[0]
    cmat = np.eye(n) if args.identity else random_orthogonal(n, cfg["seed"])
    return ConstructionConstants.simple(b, cmat=cmat)


def _cmd_construct(args) -> int:
    cfg = _resolve(args)
    tol = _tolerances(cfg)
    constants = _load_constants(args, cfg)
    validation = validate_constants(constants)
    if not validation.ok:
        print("invalid constants:", "; ".join(validation.failures), file=sys.stderr)
        return 2

    maps = build_immersion(constants)
    n = constants.n
    half = cfg["grid"]["half_width"]
    points = cfg["grid"]["points_per_axis"]
    v_grid = _mesh([0.0] * n, half, points, n)
    vbar_grid = np.sqrt(2.0) * v_grid * constants.b

    report = PropertyReport(
        chart={"name": "constructed", "params": constants.to_json_dict(), "n": n},
        grid={"points": int(v_grid.shape[0]), "half_width": half},
        orientation=maps.chart.orientation,
    )
    analysis = analyze(maps.chart, vbar_grid)
    anchor = "integrability conditions of the curvature-line frame system"
    for name, residual in frobenius_report(maps, v_grid, analysis).items():
        report.add(f"frobenius_{name}", anchor, residual, tol.frobenius)

    cls = classify_analysis(analysis, tol.classification)
    report.classification = cls.to_dict()
    report.add(
        "constructed_isotropic_lambda",
        "constructed immersion has vanishing tensor eigenvalue",
        abs(cls.lambda_estimate),
        tol.classification,
    )
    b_in = np.sort(constants.b)
    b_match = min(
        float(np.max(np.abs(np.sort(cls.b_hat) - b_in))),
        float(np.max(np.abs(np.sort(-cls.b_hat) - b_in))),
    )
    report.add(
        "constructed_b_roundtrip",
        "recovered Laguerre principal curvatures match the input constants",
        b_match,
        tol.classification,
        note="compared up to a global orientation sign",
    )
    identity_like = np.allclose(constants.cmat, np.eye(n)) and np.allclose(
        constants.diag * (constants.beta1 - constants.beta3 * constants.b), 0.0
    )
    if identity_like and abs(constants.phi) < 1e-14:
        reference = hilf_chart(HilfParams(a=tuple(1.0 / constants.b)))
        dx = np.max(np.abs(maps.x(vbar_grid) - reference.evaluator(vbar_grid)))
        dxi = np.max(np.abs(maps.xi(vbar_grid) - reference.normal(vbar_grid)))
        report.add(
            "explicit_family_roundtrip",
            "identity-matrix constants reproduce the explicit family",
            max(float(dx), float(dxi)),
            tol.construction_roundtrip,
        )
    else:
        report.skip(
            "explicit_family_roundtrip",
            "identity-matrix constants reproduce the explicit family",
            "requires the identity matrix, cancelled shifts and phi = 0",
        )
    _write_report(report.to_dict(), cfg, args)
    _print_summary(report)
    return 0 if report.passed else 1


def _cmd_tau(args) -> int:
    cfg = _resolve(args)
    tol = _tolerances(cfg)
    params = cfg.get("surface", {}).get("params", {})
    hp = HilfParams(a=params.get("a", (1.0, 2.0)), phi=0.0)
    deg = degenerate_example(hp)
    euclid = hilf_chart(hp)
    grid = _grid_for(deg.n, cfg)

    report = degenerate_model_report(deg, grid, tol)
    x_img, xi_img = laguerre_immersion_tau(deg.evaluator(grid), deg.normal(grid))
    report.add(
        "tau_position_equivalence",
        "the degenerate model maps onto the explicit family",
        float(np.max(np.abs(x_img - euclid.evaluator(grid)))),
        tol.tau_equivalence,
    )
    report.add(
        "tau_normal_equivalence",
        "the mapped normal matches the explicit family normal",
        float(np.max(np.abs(xi_img - euclid.normal(grid)))),
        tol.tau_equivalence,
    )
    _write_report(report.to_dict(), cfg, args)
    _print_summary(report)
    return 0 if report.passed else 1


def _add_common(parser, with_surface=True):
    parser.add_argument("--config", help="JSON config file; flags override fields")
    if with_surface:
        parser.add_argument("--surface", help="catalog name (hilf, torus, ...)")
        parser.add_argument("--a", help="comma-separated family constants")
        parser.add_argument("--phi", type=float, help="family shift parameter")
        parser.add_argument("--params", help="surface parameters as JSON")
    parser.add_argument("--grid", type=int, help="points per axis (>= 3)")
    parser.add_argument("--half-width", dest="half_width", type=float)
    parser.add_argument("--center", help="comma-separated grid center")
    parser.add_argument("--step", type=float, help="finite-difference step")
    parser.add_argument("--seed", type=int, help="seed for all randomness")
    parser.add_argument("--out", help="report JSON path (default: stdout)")
    parser.add_argument("--samples", help="per-point CSV path")
    parser.add_argument(
        "--no-timestamp", action="store_true",
        help="omit the timestamp for byte-reproducible reports",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagkit",
        description="Laguerre-geometry invariants of hypersurfaces: compute and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list built-in surfaces")

    p_verify = sub.add_parser("verify", help="run the property suite")
    _add_common(p_verify)

    p_inv = sub.add_parser("invariants", help="dump per-point invariants")
    _add_common(p_inv)

    p_con = sub.add_parser("construct", help="integrate the frame system from constants")
    _add_common(p_con, with_surface=False)
    p_con.add_argument("--constants", help="JSON file with b/cmat/beta/gamma")
    p_con.add_argument(
        "--b-from-a", dest="b_from_a",
        help="derive b from comma-separated principal curvatures",
    )
    p_con.add_argument(
        "--identity", action="store_true",
        help="use the identity matrix instead of a seeded orthogonal one",
    )

    p_tau = sub.add_parser("tau", help="compare the mapped degenerate model to the family")
    _add_common(p_tau)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "catalog": _cmd_catalog,
        "verify": _cmd_verify,
        "invariants": _cmd_invariants,
        "construct": _cmd_construct,
        "tau": _cmd_tau,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except LagkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at devnull so that the
        # final flush at interpreter exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
