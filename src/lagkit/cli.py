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
import json
import os
import re
import sys
from datetime import datetime, timezone
from functools import lru_cache

import numpy as np

from .construction import ConstructionConstants, b_from_curvatures, random_orthogonal
from .errors import LagkitError
from .families import CATALOG, NUMBERS, OBJECT, accepted, is_finite_number
from .verifier import (
    PropertyReport,
    construct_suite,
    degenerate_model_report,
    run_suite,
    tau_suite,
)

SCHEMA_VERSION = 2


def _parse_list(text: str):
    return [item.strip() for item in text.split(",") if item.strip()]


def _parse_floats(text: str, flag: str):
    try:
        return [float(v) for v in _parse_list(text)]
    except ValueError as exc:
        raise LagkitError(f"{flag} takes comma-separated numbers: {exc}") from exc


def _mesh(center, half_width, points, n):
    center = np.asarray(center, dtype=float)
    axes = [
        np.linspace(c - half_width, c + half_width, points) for c in center
    ]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)


def _int(digits: str) -> int:
    """A JSON integer.  One past Python's limit on the digits it converts,
    where there is one, is refused by naming that limit: Python's own
    message ends with advice that a CLI user cannot follow."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    count = len(digits.lstrip("-"))
    if 0 < limit < count:
        raise ValueError(f"an integer of {count} digits is past Python's limit of {limit} digits")
    return int(digits)


def _load_json(path, name, parse):
    """``parse`` of the JSON value in file ``path``; an error line names
    the file as ``name``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(json.load(fh, parse_int=_int))
    except (OSError, ValueError, LagkitError) as exc:
        raise LagkitError(f"{name} {path}: {exc}") from exc


# The keys of each object of a config, and their kinds.
_POSITIVE = (lambda v: is_finite_number(v) and v > 0, "a positive finite number")
_SECTIONS = {"surface": OBJECT, "grid": OBJECT,
             "seed": (lambda v: type(v) is int and v >= 0, "a non-negative integer")}
_SURFACE = {"kind": (lambda v: isinstance(v, str) and v in CATALOG,
                     "one of " + ", ".join(sorted(CATALOG))),
            "params": OBJECT}
_GRID = {"points_per_axis": (lambda v: type(v) is int and v >= 3, "an integer of at least 3"),
         "half_width": _POSITIVE, "center": NUMBERS}
# The sections of a config file that a command reads, where it reads
# fewer than all: ``construct`` builds its immersion from constants.
_READS = {"construct": ("grid", "seed")}


def _checked(cfg: dict, sections=tuple(_SECTIONS)) -> dict:
    """``cfg`` itself, each of its objects checked by ``families.accepted``;
    its sections are those named by ``sections``."""
    accepted(cfg, "section", **{name: _SECTIONS[name] for name in sections})
    accepted(cfg.get("surface", {}), "surface key", **_SURFACE)
    accepted(cfg.get("grid", {}), "grid key", **_GRID)
    return cfg


def _resolve(args) -> dict:
    """Merge the config file (if any) with flag overrides.  The file is
    checked before a flag writes into it, with only the sections its
    command reads, and the merge after."""
    cfg = {"surface": {}, "grid": {}, "seed": 0}
    if getattr(args, "config", None):
        sections = _READS.get(args.command, tuple(_SECTIONS))
        cfg.update(_load_json(args.config, "config file", lambda c: _checked(c, sections)))
    if getattr(args, "surface", None):
        cfg["surface"]["kind"] = args.surface
    if getattr(args, "a", None):
        params = cfg["surface"].setdefault("params", {})
        params["a"] = _parse_floats(args.a, "--a")
    if getattr(args, "phi", None) is not None:
        cfg["surface"].setdefault("params", {})["phi"] = args.phi
    if getattr(args, "params", None):
        try:
            params = json.loads(args.params, parse_int=_int)
        except ValueError as exc:
            raise LagkitError(f"--params cannot be parsed as JSON: {exc}") from exc
        if not isinstance(params, dict):
            raise LagkitError("--params must be a JSON object")
        cfg["surface"].setdefault("params", {}).update(params)
    if getattr(args, "grid", None) is not None:
        cfg["grid"]["points_per_axis"] = args.grid
    if getattr(args, "half_width", None) is not None:
        cfg["grid"]["half_width"] = args.half_width
    if getattr(args, "center", None):
        cfg["grid"]["center"] = _parse_floats(args.center, "--center")
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    cfg["grid"].setdefault("points_per_axis", 5)
    cfg["grid"].setdefault("half_width", 0.4)
    return _checked(cfg)


def _grid_for(chart_n: int, cfg) -> np.ndarray:
    grid_cfg = cfg["grid"]
    center = [0.0] * chart_n if grid_cfg.get("center") is None else grid_cfg["center"]
    if len(center) != chart_n:
        raise LagkitError(
            f"grid center has {len(center)} coordinates for an n={chart_n} surface"
        )
    # numpy refuses past 32 axes (RuntimeError) or 64 (ValueError), or past memory.
    try:
        return _mesh(center, grid_cfg["half_width"], grid_cfg["points_per_axis"], chart_n)
    except (MemoryError, RuntimeError, ValueError) as exc:
        raise LagkitError(f"a grid of {grid_cfg['points_per_axis']} points per axis in "
                          f"n = {chart_n} dimensions cannot be built: {exc}") from exc


def _finish(report: PropertyReport, cfg: dict, args) -> int:
    """Write the report to ``--out`` (default stdout), print its summary
    and return the exit status.  The output path comes from the flag
    alone, so the config echo, and the report, do not depend on it."""
    payload = {"schema_version": SCHEMA_VERSION, "config_echo": cfg, **report.to_dict()}
    if not args.no_timestamp:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise LagkitError(f"cannot write --out {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
    _print_summary(report)
    return 0 if report.passed else 1


def _print_summary(report: PropertyReport) -> None:
    for c in report.checks:
        res = "-" if c.residual is None else f"{c.residual:.3e}"
        print(f"[{c.status:4}] {c.name}: {res}  {c.note}")
    for err in report.errors:
        print(f"[err ] point {err['point']}: {err['reason']}")
    print(f"suite: {'PASS' if report.passed else 'FAIL'}")


def _write_samples(path, a) -> None:
    """Per-point invariants of the analysis ``a``, one row per regular grid
    point, full precision."""
    m, n = a.grid.shape
    header = (
        [f"u_{i+1}" for i in range(n)]
        + [f"x_{i+1}" for i in range(n + 1)]
        + [f"k_{i+1}" for i in range(n)]
        + ["rho", "r"]
        + [f"b_{i+1}" for i in range(n)]
        + [f"C_{i+1}" for i in range(n)]
        + [f"L_diag_{i+1}" for i in range(n)]
    )
    ldiag = np.diagonal(a.L_structural, axis1=-2, axis2=-1)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for p in range(m):
                row = (
                    list(a.grid[p]) + list(a.x[p]) + list(a.k[p]) + [a.rho[p], a.r[p]]
                    + list(a.b[p]) + list(a.C_closed[p]) + list(ldiag[p])
                )
                writer.writerow([repr(float(v)) for v in row])
    except OSError as exc:
        raise LagkitError(f"cannot write --samples {path}: {exc.strerror or exc}") from exc


def _cmd_catalog(args) -> int:
    for name in sorted(CATALOG):
        print(name)
    return 0


def _cmd_verify(args) -> int:
    """``verify``, and ``invariants``, the one command with ``--samples``."""
    cfg = _resolve(args)
    kind = cfg["surface"].get("kind", "hilf")
    chart = CATALOG[kind](cfg["surface"].get("params", {}))
    grid = _grid_for(chart.n, cfg)
    suite = degenerate_model_report if kind == "degenerate-hilf" else run_suite
    report = suite(chart, grid)
    samples = getattr(args, "samples", None)
    if samples:
        if report.analysis is None:
            raise LagkitError("no invariant samples available for this surface")
        _write_samples(samples, report.analysis)
    return _finish(report, cfg, args)


def _constants_and_grid(args, cfg):
    """The constants ``construct`` reads and its grid.  The grid of
    ``--b-from-a`` is built before C is drawn: ``random_orthogonal``
    resamples more often the larger n is."""
    if args.constants:
        constants = _load_json(args.constants, "constants file",
                               ConstructionConstants.from_json_dict)
        return constants, _grid_for(constants.n, cfg)
    if not args.b_from_a:
        raise LagkitError("construct needs --constants or --b-from-a")
    b = b_from_curvatures(_parse_list(args.b_from_a))
    n = b.shape[0]
    grid = _grid_for(n, cfg)
    cmat = np.eye(n) if args.identity else random_orthogonal(n, cfg["seed"])
    return ConstructionConstants(b, cmat), grid


def _cmd_construct(args) -> int:
    cfg = _resolve(args)
    return _finish(construct_suite(*_constants_and_grid(args, cfg)), cfg, args)


def _cmd_tau(args) -> int:
    cfg = _resolve(args)
    kind = cfg["surface"].get("kind", "hilf")
    if kind != "hilf":
        raise LagkitError(f"tau maps the degenerate model onto hilf, not {kind!r}")
    deg = CATALOG["degenerate-hilf"](cfg["surface"].get("params", {}))
    return _finish(tau_suite(deg, _grid_for(deg.n, cfg)), cfg, args)


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
    parser.add_argument("--seed", type=int, help="seed for all randomness")
    parser.add_argument("--out", help="report JSON path (default: stdout)")
    parser.add_argument(
        "--no-timestamp", action="store_true",
        help="omit the timestamp for byte-reproducible reports",
    )


# Flags that take a comma list.  argparse reads a value such as "-1,2",
# which is no number it knows, as an option.
_LIST_FLAGS = ("--a", "--center", "--b-from-a")


def _join_lists(argv):
    """``--a -1,2`` as ``--a=-1,2``, so that a list may start with a negative number."""
    joined = []
    for token in argv:
        if joined and joined[-1] in _LIST_FLAGS and re.match(r"-\.?\d", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


class _Parser(argparse.ArgumentParser):
    """Bad arguments are bad input: one ``error:`` line and exit status 2.
    Flags are spelt out in full, as ``_join_lists`` knows no abbreviation."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise LagkitError(message)


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing leaves
    it unchanged, so each ``main`` call reuses it."""
    parser = _Parser(
        prog="lagkit",
        description="Laguerre-geometry invariants of hypersurfaces: compute and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list built-in surfaces")

    p_verify = sub.add_parser("verify", help="run the property suite")
    _add_common(p_verify)

    p_inv = sub.add_parser("invariants", help="dump per-point invariants")
    _add_common(p_inv)
    p_inv.add_argument("--samples", help="per-point CSV path")

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
    handlers = {
        "catalog": _cmd_catalog,
        "verify": _cmd_verify,
        "invariants": _cmd_verify,
        "construct": _cmd_construct,
        "tau": _cmd_tau,
    }
    try:
        args = build_parser().parse_args(_join_lists(sys.argv[1:] if argv is None else argv))
        # A grid on which a map overflows is refused with one error line;
        # numpy's warnings on the way would only repeat it.
        with np.errstate(all="ignore"):
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
