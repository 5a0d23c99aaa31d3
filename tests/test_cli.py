import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lagkit
from lagkit import charts, cli, invariants
from lagkit.cli import build_parser, main
from lagkit.construction import b_from_curvatures
from tests.conftest import count_rows, mesh


def run(args):
    return main(args)


def test_catalog(capsys):
    assert run(["catalog"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["degenerate-hilf", "hilf", "torus"]


def test_verify_writes_report(tmp_path):
    report = tmp_path / "report.json"
    code = run([
        "verify", "--surface", "hilf", "--a", "1,2,3",
        "--grid", "3", "--half-width", "0.4",
        "--no-timestamp", "--out", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["schema_version"] == 2
    assert payload["passed"] is True
    assert payload["classification"]["is_isotropic"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "b_trace_zero" in names
    for check in payload["checks"]:
        assert check["status"] in {"pass", "fail", "skip"}
        assert check["anchor"]


def test_verify_torus_with_params(tmp_path):
    report = tmp_path / "torus.json"
    code = run([
        "verify", "--surface", "torus", "--params", '{"R": 2, "r_tube": 1}',
        "--grid", "3", "--half-width", "0.8",
        "--no-timestamp", "--out", str(report),
    ])
    assert code == 0


def test_verify_rejects_unknown_surface(tmp_path):
    code = run([
        "verify", "--surface", "klein-bottle", "--grid", "3",
        "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2


def test_verify_rejects_misspelled_surface_parameter(tmp_path, capsys):
    # R_major is not a torus parameter: it must not fall back to R = 2.
    code = run([
        "verify", "--surface", "torus", "--params", '{"R_major": 5, "r_tube": 1}',
        "--grid", "3", "--half-width", "0.5", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "'R_major'" in err and "accepted: R, r_tube" in err
    assert not (tmp_path / "r.json").exists()


def test_verify_rejects_bad_grid():
    assert run(["verify", "--surface", "hilf", "--a", "1,2", "--grid", "2"]) == 2


def test_determinism_byte_identical(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code = run([
            "verify", "--surface", "hilf", "--a", "1,2,3",
            "--grid", "3", "--half-width", "0.4", "--seed", "7",
            "--no-timestamp", "--out", str(path),
        ])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_invariants_csv_roundtrip(tmp_path):
    report = tmp_path / "report.json"
    samples = tmp_path / "samples.csv"
    code = run([
        "invariants", "--surface", "hilf", "--a", "1,2",
        "--grid", "3", "--half-width", "0.3",
        "--no-timestamp", "--out", str(report), "--samples", str(samples),
    ])
    assert code == 0
    with open(samples, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    assert header[:2] == ["u_1", "u_2"]
    assert "rho" in header and "L_diag_1" in header
    assert len(data) == 9
    # exact round trip through repr
    values = np.array([[float(v) for v in row] for row in data])
    again = np.array([[float(repr(float(v))) for v in row] for row in values])
    assert np.array_equal(values, again)
    u_cols = values[:, :2]
    assert np.max(np.abs(u_cols)) <= 0.3 + 1e-15


def test_construct_identity(tmp_path):
    report = tmp_path / "con.json"
    code = run([
        "construct", "--b-from-a", "1,2,3", "--identity",
        "--grid", "3", "--half-width", "0.5",
        "--no-timestamp", "--out", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["explicit_family_roundtrip"]["status"] == "pass"
    assert by_name["constructed_b_roundtrip"]["status"] == "pass"


def test_verify_next_to_the_singular_line(tmp_path):
    # The column u_1 = -0.998 lies 2e-3 from the singular line u_1 = -1 of
    # hilf (1,2): a stencil of differences around it would cross the line,
    # the Taylor jet needs the grid points alone.
    report = tmp_path / "near.json"
    code = run([
        "verify", "--surface", "hilf", "--a", "1,2", "--grid", "5",
        "--center=-0.798,0.3", "--half-width", "0.2",
        "--no-timestamp", "--out", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["passed"] is True and payload["errors"] == []
    assert payload["classification"]["is_isotropic"] is True


@pytest.mark.parametrize("center,half_width,errors", [
    pytest.param("0,1.2", 0.5, [], id="past-pi/3"),
    pytest.param("0,2.5", 0.5, [], id="mixed-signs"),
    # k2 = cos v / (R + r cos v) vanishes on the middle row of each u column.
    pytest.param(f"0,{np.pi / 2!r}", 0.5, [3, 10, 17, 24, 31, 38, 45], id="circle"),
    pytest.param(f"0,{np.pi / 2 + 1e-5!r}", 0.05, [], id="near-circle", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            "D13: 1e-5 from the circle v = pi/2, where rho reaches 1.4e5, "
            "position_n_pairing, normal_map_lightlike and tangent_orthonormality read "
            "1.9e-6 and structure_equation 0.10 against absolute tolerances; residuals "
            "on their own scale are ROADMAP item 13, the singular set from measured "
            "conditioning item 26"))),
])
def test_every_torus_point_passes_or_is_a_point_error(center, half_width, errors, tmp_path):
    # The torus admits every parameter point: one that the theory excludes
    # is a point error of the regularity screen, and the rest of its grid runs.
    report = tmp_path / "torus.json"
    code = run([
        "verify", "--surface", "torus", "--params", '{"R": 2, "r_tube": 1}', "--grid", "7",
        f"--center={center}", "--half-width", str(half_width),
        "--no-timestamp", "--out", str(report),
    ])
    payload = json.loads(report.read_text())
    assert code == 0 and payload["passed"] is True
    assert [e["index"] for e in payload["errors"]] == errors
    assert {e["reason"] for e in payload["errors"]} <= {"vanishing principal curvature"}


def test_construct_seeded(tmp_path):
    report = tmp_path / "con.json"
    code = run([
        "construct", "--b-from-a", "1,2,3", "--seed", "1",
        "--grid", "3", "--half-width", "0.5",
        "--no-timestamp", "--out", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["explicit_family_roundtrip"]["status"] == "skip"
    assert payload["classification"]["is_isotropic"] is True


def test_construct_lifts_the_grid_once(monkeypatch, tmp_path):
    # The pipeline rows and the classification share one analysis: one lift
    # of the 5^3 vbar grid points, whose partials come from one Taylor jet.
    lift_rows = count_rows(monkeypatch, charts.regularity, 0)
    code = run([
        "construct", "--b-from-a", "1,2,3", "--seed", "1",
        "--grid", "5", "--half-width", "0.5",
        "--no-timestamp", "--out", str(tmp_path / "con.json"),
    ])
    assert code == 0
    assert lift_rows == [125]


def test_construct_names_an_irregular_point(monkeypatch, tmp_path, capsys):
    # No constructed grid tried has an irregular point, so one is planted.  It
    # is an error entry, as in verify, and the checks run on the other points
    # of the vbar grid, which the report describes.
    regularity = invariants.regularity

    def one_umbilic(*jet):
        *forms, reason = regularity(*jet)
        reason[4] = "umbilic point"
        return (*forms, reason)

    monkeypatch.setattr(invariants, "regularity", one_umbilic)
    out = tmp_path / "con.json"
    code = run(["construct", "--b-from-a", "1,2,3", "--grid", "3", "--no-timestamp",
                "--out", str(out)])
    assert code == 0 and not capsys.readouterr().err
    payload = json.loads(out.read_text())
    vbar = np.sqrt(2.0) * mesh(3, 0.4, 3) * b_from_curvatures([1, 2, 3])
    assert payload["errors"] == [
        {"index": 4, "point": vbar[4].tolist(), "reason": "umbilic point"}]
    assert payload["grid"] == {"points": 27, "dimension": 3, "min": vbar.min(axis=0).tolist(),
                               "max": vbar.max(axis=0).tolist()}
    assert payload["passed"] is True and payload["checks"]


# A comma list may start with a negative number also when its value is a
# separate argument; argparse alone reads such a value as an option.
NEGATIVE_LISTS = {
    "a": ["verify", "--surface", "hilf", "--a", "-1,2"],
    "center": ["verify", "--surface", "hilf", "--a", "1,2", "--center", "-0.5,0.1"],
    "b-from-a": ["construct", "--b-from-a", "-1,2,3"],
}


@pytest.mark.parametrize("argv", NEGATIVE_LISTS.values(), ids=NEGATIVE_LISTS.keys())
def test_list_flag_takes_a_negative_first_value(argv, tmp_path, capsys):
    def report(argv):
        out = tmp_path / "r.json"
        assert run(argv + ["--grid", "3", "--no-timestamp", "--out", str(out)]) == 0
        return out.read_bytes()

    joined = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
    assert report(argv) == report(joined)
    assert not capsys.readouterr().err


def test_construct_rejects_tampered_matrix(tmp_path, capsys):
    bad = tmp_path / "constants.json"
    cmat = np.eye(3)
    cmat[0, 0] = 2.0
    bad.write_text(json.dumps({
        "b": list(np.array([-7.0, 2.0, 5.0]) / np.sqrt(78.0)),
        "cmat": cmat.tolist(),
        "beta1": [0, 0, 0], "beta3": [0, 0, 0], "gamma1": [0, 0, 0],
    }))
    code = run([
        "construct", "--constants", str(bad),
        "--no-timestamp", "--out", str(tmp_path / "r.json"),
    ])
    assert code == 2
    # Inadmissible constants are bad input like any other: one error line.
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "matrix is not orthogonal" in err
    assert not (tmp_path / "r.json").exists()


def test_construct_requires_source():
    assert run(["construct", "--no-timestamp"]) == 2


def test_tau_command(tmp_path):
    report = tmp_path / "tau.json"
    code = run([
        "tau", "--a", "1,2", "--grid", "5", "--half-width", "0.4",
        "--no-timestamp", "--out", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    by_name = {c["name"]: c for c in payload["checks"]}
    assert by_name["tau_position_equivalence"]["residual"] <= 1e-12


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "surface": {"kind": "hilf", "params": {"a": [1, 2], "phi": 0.0}},
        "grid": {"points_per_axis": 3, "half_width": 0.2},
        "seed": 3,
    }))
    report = tmp_path / "rep.json"
    code = run([
        "verify", "--config", str(cfg), "--half-width", "0.3",
        "--no-timestamp", "--out", str(report),
    ])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["config_echo"]["grid"]["half_width"] == 0.3
    assert payload["config_echo"]["seed"] == 3


def test_malformed_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run(["verify", "--config", str(cfg)]) == 2


def test_degenerate_surface_verify(tmp_path):
    code = run([
        "verify", "--surface", "degenerate-hilf", "--a", "1,2",
        "--grid", "3", "--half-width", "0.4",
        "--no-timestamp", "--out", str(tmp_path / "deg.json"),
    ])
    assert code == 0


def test_closed_stdout_exits_quietly():
    # A one-page pipe holds less than the report, so the CLI is still
    # writing when the reader closes it after the first line.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity cannot be set on this platform")
    src = str(Path(lagkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(read_fd, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "lagkit.cli", "verify", "--surface", "hilf", "--a", "1,2",
         "--grid", "5", "--half-width", "0.3", "--no-timestamp"],
        stdout=write_fd, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_fd)
    with os.fdopen(read_fd, "rb", buffering=0) as out:
        assert out.readline() == b"{\n"
    _, err = proc.communicate(timeout=120)
    assert err == b""
    assert proc.returncode == 1


# Bad input of every kind the CLI reads: each exits 2 with one ``error:``
# line naming the input.  "{file}" is replaced by the path of a JSON file
# holding the probe's data, or the probe's bytes as they are.
B3 = [-0.79, 0.22, 0.56]
# Python's limit on the digits of an integer it parses, where one applies
# to 5,000 digits, as an error line names it.
_LIMIT = getattr(sys, "get_int_max_str_digits", int)()
DIGIT_LIMIT = f"past Python's limit of {_LIMIT} digits" if 0 < _LIMIT <= 5000 else None
CONSTANTS = {"b": [0.7071067811865476, -0.7071067811865476], "cmat": [1, 0, 0, 1]}
MULTIPLICITY_COMMANDS = (("verify", ["verify", "--surface", "hilf"]), ("tau", ["tau"]),
                         ("degenerate", ["verify", "--surface", "degenerate-hilf"]))

BAD_INPUT = {
    "a-not-number": (["verify", "--surface", "hilf", "--a", "1,x"], None, "--a"),
    "params-not-object": (["verify", "--params", "[1,2]"], None, "--params"),
    "torus-R-not-number": (
        ["verify", "--surface", "torus", "--params", '{"R":"x"}'], None, "'R'"),
    "a-empty": (["verify", "--params", '{"a":[]}'], None, "nonempty"),
    "a-one-constant": (
        ["verify", "--params", '{"a":[-0.5],"multiplicities":[2],"phi":-1.9999999999999998}',
         "--grid", "3", "--half-width", "0.05"], None, "two distinct constants"),
    "tau-a-one-constant": (["tau", "--a", "2"], None, "two distinct constants"),
    "multiplicity-fraction": (
        ["verify", "--params", '{"a":[1,2],"multiplicities":[1.5,1]}'], None, "integers"),
    "phi-nan": (["verify", "--a", "1,2", "--phi", "nan"], None, "finite"),
    "a-nan": (["verify", "--a", "1,nan"], None, "finite"),
    "a-inf": (["verify", "--a", "1,inf"], None, "finite"),
    "half-width-nan": (["verify", "--a", "1,2", "--half-width", "nan"], None, "half_width"),
    "center-nan": (["verify", "--a", "1,2", "--center", "0.1,nan"], None, "center"),
    # An empty centre is no centre of an n = 2 grid, not the origin.
    "center-empty": (["verify", "--a", "1,2", "--center", ","], None, "0 coordinates"),
    "center-empty-config": (
        ["verify", "--a", "1,2", "--config", "{file}"], {"grid": {"center": []}},
        "0 coordinates"),
    # Surface parameters are JSON numbers: a bool or a string is refused by key.
    "a-bool": (["verify", "--params", '{"a":[true,2]}'], None, "'a'"),
    "a-strings": (["verify", "--params", '{"a":["1","2"]}'], None, "'a'"),
    "multiplicities-bool": (
        ["verify", "--params", '{"a":[1,2],"multiplicities":[true,1]}'], None, "'multiplicities'"),
    "phi-string": (["verify", "--params", '{"a":[1,2],"phi":"0.5"}'], None, "'phi'"),
    "phi-null": (["verify", "--params", '{"a":[1,2],"phi":null}'], None, "'phi'"),
    "torus-R-string": (["verify", "--surface", "torus", "--params", '{"R":"3"}'], None, "'R'"),
    "torus-r-tube-bool": (
        ["verify", "--surface", "torus", "--params", '{"r_tube":true}'], None, "'r_tube'"),
    "tau-a-string": (["tau", "--params", '{"a":[1,"2"]}'], None, "'a'"),
    # ... and a list takes a flat list, a number one number.
    "a-object": (["verify", "--params", '{"a":{"x":1}}'], None, "'a'"),
    "multiplicities-number": (
        ["verify", "--params", '{"a":[1,2],"multiplicities":2}'], None, "'multiplicities'"),
    "a-nested": (["verify", "--params", '{"a":[1,[2]]}'], None, "'a'"),
    "phi-list": (["verify", "--params", '{"a":[1,2],"phi":[0.5]}'], None, "'phi'"),
    # An integer past the float range is no finite number.
    "torus-R-huge-integer": (
        ["verify", "--surface", "torus", "--params", '{"R":1' + "0" * 400 + "}"], None, "'R'"),
    "half-width-huge-integer": (
        ["verify", "--config", "{file}"], {"grid": {"half_width": 10**400}}, "half_width"),
    # The tolerances are fixed: a config file sets none, of any value.
    "tolerance-negative": (
        ["verify", "--config", "{file}"], {"tolerances": {"frobenius": -1}},
        ": unknown section(s) 'tolerances'; accepted: surface, grid, seed\n"),
    "tolerance-old-name": (
        ["verify", "--config", "{file}"], {"tolerances": {"l_variant": 1e-3}},
        "unknown section(s) 'tolerances'"),
    "tolerance-not-number": (
        ["verify", "--config", "{file}"], {"tolerances": {"frobenius": "abc"}},
        "unknown section(s) 'tolerances'"),
    "tolerance-null-json-text": (
        ["verify", "--config", "{file}"], {"tolerances": {"frobenius": None}},
        "unknown section(s) 'tolerances'"),
    "construct-config-tolerances": (
        ["construct", "--b-from-a", "1,2,3", "--grid", "3", "--config", "{file}"],
        {"tolerances": {"frobenius": 1e-3}},
        ": unknown section(s) 'tolerances'; accepted: grid, seed\n"),
    "points-not-integer": (
        ["verify", "--config", "{file}"], {"grid": {"points_per_axis": "5"}},
        "'points_per_axis'"),
    "b-from-a-not-number": (["construct", "--b-from-a", "1,x"], None, "curvatures"),
    "b-from-a-one-value": (["construct", "--b-from-a", "1"], None, "two curvatures"),
    # rho^2 past the float range, then below it.
    "b-from-a-rho2-overflow": (["construct", "--b-from-a", "1,1e-300"], None, "float range"),
    "b-from-a-rho2-underflow": (["construct", "--b-from-a", "1e300,2e300"], None, "float range"),
    "cmat-wrong-size": (
        ["construct", "--constants", "{file}"], {"b": B3, "cmat": [1, 0, 0, 1]},
        "4 cmat entries"),
    "constants-b-empty": (
        ["construct", "--constants", "{file}"], {"b": [], "cmat": []}, "need n >= 2"),
    # Constants are finite JSON numbers, checked by key as surface parameters
    # are: numpy would read an integer past the float range as an
    # OverflowError, and a string or a bool as a number.
    "constants-b-huge-int": (
        ["construct", "--constants", "{file}"], {"b": [10**400, -1], "cmat": [1, 0, 0, 1]},
        "'b'"),
    "constants-b-string": (
        ["construct", "--constants", "{file}"],
        {"b": ["0.7071067811865476", "-0.7071067811865476"], "cmat": [1, 0, 0, 1]}, "'b'"),
    "constants-cmat-bool": (
        ["construct", "--constants", "{file}"],
        {"b": [0.7071067811865476, -0.7071067811865476], "cmat": [True, 0, 0, 1]}, "'cmat'"),
    "tau-a-not-number": (["tau", "--a", "1,x"], None, "--a"),
    # The degenerate model overflows on these grids, as a chart's Jacobian
    # does on ``verify``'s.
    "tau-model-overflow": (
        ["tau", "--a", "1,2", "--grid", "3", "--half-width", "1e160"], None, "not finite"),
    "degenerate-model-overflow": (
        ["verify", "--surface", "degenerate-hilf", "--params", '{"a":[1,2]}', "--grid", "3",
         "--half-width", "1e200"], None, "not finite"),
    # Before it overflows, its first form I = (a u)^2 + 1 - (a u)^2 rounds to 0.
    "degenerate-model-singular": (
        ["verify", "--surface", "degenerate-hilf", "--a", "1,2", "--grid", "3",
         "--half-width", "1e8"], None, "first fundamental form"),
    "tau-model-singular": (
        ["tau", "--a", "1,2", "--grid", "3", "--half-width", "1e8"], None,
        "first fundamental form"),
    # ... and so do a chart and the constructed chart: numpy's overflow
    # warnings stay off stderr.
    "hilf-chart-overflow": (
        ["verify", "--surface", "hilf", "--a", "1,2", "--grid", "3", "--half-width", "1e200"],
        None, "not finite"),
    "construct-chart-overflow": (
        ["construct", "--b-from-a", "1,2,3", "--grid", "3", "--half-width", "1e200"],
        None, "not finite"),
    "step-flag": (["verify", "--a", "1,2", "--step", "1e-3"], None, "--step"),
    # Flags are spelt out in full, a list flag with a negative value too.
    "abbreviated-flag": (["verify", "--surf", "hilf", "--a", "1,2"], None, "--surf"),
    "abbreviated-list-flag": (
        ["verify", "--surface", "hilf", "--a", "1,2", "--cent", "-0.5,0.1"], None, "--cent"),
    "abbreviated-list-flag-joined": (
        ["verify", "--surface", "hilf", "--a", "1,2", "--cent=-0.5,0.1"], None, "--cent"),
    "config-unknown-section": (
        ["verify", "--config", "{file}"], {"fd": {"step": 1e-3}}, "unknown section(s) 'fd'"),
    # Report and sample paths come from --out and --samples alone.
    "config-output-section": (
        ["verify", "--config", "{file}"], {"output": {"report_path": "x.json"}},
        "unknown section(s) 'output'"),
    # Only ``invariants`` writes per-point samples.
    "verify-samples": (["verify", "--a", "1,2", "--samples", "s.csv"], None, "--samples"),
    "construct-samples": (
        ["construct", "--b-from-a", "1,2,3", "--samples", "s.csv"], None, "--samples"),
    "tau-samples": (["tau", "--a", "1,2", "--samples", "s.csv"], None, "--samples"),
    # An error line quotes a bad value as its JSON text.
    "a-bool-json-text": (["verify", "--params", '{"a":[true,-1]}'], None, "not [true, -1]"),
    "r-tube-null-json-text": (
        ["verify", "--surface", "torus", "--params", '{"r_tube":null}'], None, "not null"),
    "constants-not-object-json-text": (
        ["construct", "--constants", "{file}"], [1, 2], "not [1, 2]"),
    "constants-b-bool-json-text": (
        ["construct", "--constants", "{file}"], {"b": [True, -1], "cmat": [1, 0, 0, 1]},
        "not [true, -1]"),
    "points-bool-json-text": (
        ["verify", "--config", "{file}"], {"grid": {"points_per_axis": True}}, "not true"),
    "half-width-list-json-text": (
        ["verify", "--config", "{file}"], {"grid": {"half_width": [0.4]}}, "not [0.4]"),
    "half-width-infinity-json-text": (
        ["verify", "--config", "{file}"], {"grid": {"half_width": float("inf")}},
        "not Infinity"),
    "center-null-json-text": (
        ["verify", "--a", "1,2", "--config", "{file}"], {"grid": {"center": [0.1, None]}},
        "not [0.1, null]"),
    "seed-bool-json-text": (["verify", "--config", "{file}"], {"seed": False}, "not false"),
    # Every JSON object takes only its own keys: a misspelt one is refused,
    # not ignored in favour of a default.
    "grid-misspelt-key": (
        ["verify", "--config", "{file}"], {"grid": {"point_per_axis": 3}}, "'point_per_axis'"),
    "surface-misspelt-key": (
        ["verify", "--config", "{file}"], {"surface": {"kind": "torus", "param": {"R": 5}}},
        "'param'"),
    "constants-misspelt-key": (
        ["construct", "--constants", "{file}"], {**CONSTANTS, "beta_1": [1, 0]}, "'beta_1'"),
    # A kind's test never raises: a list kind is refused by kind, never
    # looked up in the catalog, where it is unhashable.
    "surface-kind-list": (["verify", "--config", "{file}"], {"surface": {"kind": [1]}}, "not [1]"),
    # An integer of 5,000 digits, past Python's limit on the digits it
    # parses (where there is one) and past the float range.
    "half-width-5000-digits": (
        ["verify", "--config", "{file}"], b'{"grid": {"half_width": 1' + b"0" * 5000 + b"}}",
        "config file"),
    "torus-R-5000-digits": (
        ["verify", "--surface", "torus", "--params", '{"R": 1' + "0" * 5000 + "}"], None,
        "--params" if 0 < getattr(sys, "get_int_max_str_digits", int)() <= 5000 else "'R'"),
    "constants-b-5000-digits": (
        ["construct", "--constants", "{file}"],
        b'{"b": [1' + b"0" * 5000 + b', -1], "cmat": [1, 0, 0, 1]}', "constants file"),
    # ... which an error line names, for each kind of JSON input.
    "params-digit-limit": (
        ["verify", "--surface", "torus", "--params", '{"R": -1' + "0" * 5000 + "}"], None,
        DIGIT_LIMIT or "'R'"),
    "config-digit-limit": (
        ["verify", "--config", "{file}"], b'{"seed": 1' + b"0" * 5000 + b"}",
        DIGIT_LIMIT or "'seed'"),
    "constants-digit-limit": (
        ["construct", "--constants", "{file}"],
        b'{"b": [-1' + b"0" * 5000 + b', 1], "cmat": [1, 0, 0, 1]}', DIGIT_LIMIT or "'b'"),
    # construct builds its immersion from constants: a config surface is
    # refused, not echoed unread.
    "construct-config-surface": (
        ["construct", "--b-from-a", "1,2,3", "--grid", "3", "--config", "{file}"],
        {"surface": {"kind": "torus", "params": {"R": 5}}}, "unknown section(s) 'surface'"),
    # A file that is no UTF-8 text.
    "config-not-utf8": (["verify", "--config", "{file}"], b"\xff\xfe{}", "utf-8"),
    # A dimension numpy cannot repeat the constants to: past a C long at
    # 1e20, past any allocation at 1e18.
    **{f"{name}-multiplicity-{m}": (
        [*command, "--params", f'{{"a":[1,2],"multiplicities":[{m},1]}}', "--grid", "3"], None,
        f"multiplicities [{int(float(m))}, 1] give n = {int(float(m)) + 1}")
       for m in ("1e18", "1e20")
       for name, command in MULTIPLICITY_COMMANDS},
    # A dimension numpy repeats the constants to but cannot build a grid in,
    # refused before anything is allocated: np.meshgrid refuses more than 32
    # axes, and an array of more than 64 axes cannot be made.
    **{f"{name}-grid-n{n}": (
        [*command, "--params", f'{{"a":[1,2],"multiplicities":[{n - 1},1]}}', "--grid", "3"],
        None, f"a grid of 3 points per axis in n = {n} dimensions cannot be built")
       for n in (40, 70)
       for name, command in MULTIPLICITY_COMMANDS},
    "construct-grid-n70": (
        ["construct", "--b-from-a", ",".join(map(str, range(1, 71))), "--grid", "3"], None,
        "a grid of 3 points per axis in n = 70 dimensions cannot be built"),
}


def bad_input_error(argv, data, tmp_path, capsys):
    """What a call on bad input writes to stderr; it must exit 2 and
    write no report."""
    path = tmp_path / "input.json"
    if data is not None:
        path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
    argv = [str(path) if arg == "{file}" else arg for arg in argv]
    assert run(argv + ["--no-timestamp", "--out", str(tmp_path / "r.json")]) == 2
    assert not (tmp_path / "r.json").exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("argv,data,fragment", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_exits_2_with_one_error_line(argv, data, fragment, tmp_path, capsys):
    err = bad_input_error(argv, data, tmp_path, capsys)
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err


def test_a_grid_past_memory_exits_2():
    # n = 20 on 3 points per axis: np.meshgrid asks for 26 GiB per axis.  Run
    # under a 3 GiB address-space cap, so that the allocation fails at once
    # and never fills the machine's memory.
    pytest.importorskip("resource")
    capped = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (3 << 30,) * 2); "
              "from lagkit.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(lagkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", capped, "verify", "--surface", "hilf", "--params",
         '{"a":[1,2],"multiplicities":[19,1]}', "--grid", "3", "--no-timestamp"],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    err = proc.stderr
    assert err.startswith("error: a grid of 3 points per axis in n = 20 dimensions cannot be "
                          "built: ") and err.count("\n") == 1, err


def test_construct_refuses_its_grid_before_it_draws_c(monkeypatch, tmp_path, capsys):
    # random_orthogonal resamples until every |C_kk| >= 1e-3, which a Haar
    # matrix of n = 1000 almost never meets: the grid is refused first.
    def drawn(n, seed):
        raise AssertionError(f"C of n = {n} drawn before the grid was refused")

    monkeypatch.setattr(cli, "random_orthogonal", drawn)
    argv, data, fragment = BAD_INPUT["construct-grid-n70"]
    err = bad_input_error(argv, data, tmp_path, capsys)
    assert err.startswith(f"error: {fragment}: ") and err.count("\n") == 1, err


# Every key of every JSON object the CLI reads refuses a value of another
# kind in one wording, naming the key and quoting the value: no kind's test
# raises on a JSON value.  Entries: the command, the file's other content
# and the path of the key in it.
KEYS = [(["verify", "--config", "{file}"], {}, path) for path in (
    ("surface",), ("grid",), ("seed",), ("surface", "kind"),
    ("surface", "params"), ("grid", "points_per_axis"), ("grid", "half_width"),
    ("grid", "center"))] + [
    (["construct", "--constants", "{file}"], CONSTANTS, (key,))
    for key in ("b", "cmat", "beta1", "beta3", "gamma1")]


@pytest.mark.parametrize("argv,doc,path", KEYS, ids=[".".join(k[2]) for k in KEYS])
def test_every_key_refuses_another_kind_in_one_wording(argv, doc, path, tmp_path, capsys):
    for value in (None, True, "x", [None], float("inf")):
        data = json.loads(json.dumps(doc))
        *outer, key = path
        (data.setdefault(outer[0], {}) if outer else data)[key] = value
        err = bad_input_error(argv, data, tmp_path, capsys)
        assert err.count("\n") == 1, err
        assert f"{key!r} takes " in err and err.endswith(f", not {json.dumps(value)}\n"), err


# A value is quoted cut to about 40 characters, not as all 401 digits.
@pytest.mark.parametrize("name", (
    "torus-R-huge-integer", "half-width-huge-integer", "constants-b-huge-int"))
def test_a_huge_integer_gives_a_short_error_line(name, tmp_path, capsys):
    argv, data, _ = BAD_INPUT[name]
    err = bad_input_error(argv, data, tmp_path, capsys)
    assert "0" * 38 + "..." in err and "0" * 40 not in err, err


# An integer past Python's digit limit is refused by that limit, without
# Python's advice to raise it.
@pytest.mark.parametrize("name", ("params-digit-limit", "config-digit-limit",
                                  "constants-digit-limit"))
def test_the_digit_limit_is_named_not_raised(name, tmp_path, capsys):
    argv, data, _ = BAD_INPUT[name]
    err = bad_input_error(argv, data, tmp_path, capsys)
    assert "set_int_max_str_digits" not in err, err


# A report or sample path that cannot be written is bad input, not a failed check.
@pytest.mark.parametrize("command,flag", [("verify", "--out"), ("invariants", "--samples")])
def test_unwritable_path_exits_2_naming_it(command, flag, tmp_path, capsys):
    path = str(tmp_path / "missing" / "file")
    assert run([command, "--a", "1,2", "--grid", "3", "--no-timestamp", flag, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {flag} {path}") and err.count("\n") == 1, err


# Each command runs the configuration its report echoes: a setting it
# cannot honour exits 2 with one error line naming it, and a setting it
# honours changes what it computes.  Entries: base argv, the setting, and
# the error fragment (None where the run must pass).
ECHOED = {
    "tau-unknown-key": (["tau", "--a", "1,2"], ["--params", '{"bogus": 1}'], "'bogus'"),
    "tau-phi": (["tau", "--a", "1,2"], ["--phi", "0.5"], "'phi'"),
    "tau-surface": (["tau", "--a", "1,2"], ["--surface", "torus"], "'torus'"),
    "tau-multiplicities": (["tau", "--a", "1,2"], ["--params", '{"multiplicities": [2, 1]}'], None),
    "construct-center": (
        ["construct", "--b-from-a", "1,2,3", "--identity"], ["--center", "0.1,0,-0.1"], None),
    "construct-step": (
        ["construct", "--b-from-a", "1,2,3", "--identity"], ["--step", "2e-3"], "--step"),
}


@pytest.mark.parametrize("base,setting,fragment", ECHOED.values(), ids=ECHOED.keys())
def test_commands_run_the_configuration_they_echo(base, setting, fragment, tmp_path, capsys):
    def report(argv):
        out = tmp_path / "r.json"
        status = run(argv + ["--grid", "3", "--half-width", "0.3", "--no-timestamp",
                             "--out", str(out)])
        return status, json.loads(out.read_text()) if status != 2 else None

    status, payload = report(base + setting)
    if fragment is not None:
        err = capsys.readouterr().err
        assert status == 2 and err.startswith("error: ") and err.count("\n") == 1, err
        assert fragment in err
        return
    assert status == 0 and payload["passed"]
    _, plain = report(base)
    assert [c["residual"] for c in payload["checks"]] != [c["residual"] for c in plain["checks"]]


def test_one_parser_serves_every_call(capsys):
    # main parses with one parser per process; calls through it, a rejected
    # flag among them, exit and write as calls through a fresh parser do.
    verify = ["verify", "--surface", "hilf", "--a", "1,2,3", "--grid", "3",
              "--half-width", "0.4", "--no-timestamp"]
    calls = [verify, verify + ["--bogus"],
             ["construct", "--b-from-a", "1,2,3", "--grid", "3", "--half-width", "0.5",
              "--seed", "0", "--no-timestamp"],
             verify]
    reused = [(run(argv), capsys.readouterr()) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append((run(argv), capsys.readouterr()))
    assert [status for status, _ in reused] == [0, 2, 0, 0]
    assert reused == fresh
    assert reused[0] == reused[3] and reused[0][1].out.startswith("{")
    assert build_parser() is build_parser()
