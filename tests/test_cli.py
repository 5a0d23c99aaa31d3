import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lagkit
from lagkit import frames
from lagkit.cli import main
from tests.conftest import count_rows


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
    assert payload["schema_version"] == 1
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
    # frobenius_report and the classification share one analysis: one lift
    # of the 203-point stencil cloud of each of the 5^3 vbar grid points.
    lift_rows = count_rows(monkeypatch, frames.lift_arrays, 1)
    code = run([
        "construct", "--b-from-a", "1,2,3", "--seed", "1",
        "--grid", "5", "--half-width", "0.5",
        "--no-timestamp", "--out", str(tmp_path / "con.json"),
    ])
    assert code == 0
    assert lift_rows == [125 * 203] == [25375]


def test_construct_rejects_tampered_matrix(tmp_path):
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
# holding the probe's data.
B3 = [-0.79, 0.22, 0.56]
BAD_INPUT = {
    "a-not-number": (["verify", "--surface", "hilf", "--a", "1,x"], None, "--a"),
    "params-not-object": (["verify", "--params", "[1,2]"], None, "--params"),
    "torus-R-not-number": (
        ["verify", "--surface", "torus", "--params", '{"R":"x"}'], None, "'R'"),
    "a-empty": (["verify", "--params", '{"a":[]}'], None, "nonempty"),
    "multiplicity-fraction": (
        ["verify", "--params", '{"a":[1,2],"multiplicities":[1.5,1]}'], None, "integers"),
    "phi-nan": (["verify", "--a", "1,2", "--phi", "nan"], None, "finite"),
    "a-nan": (["verify", "--a", "1,nan"], None, "finite"),
    "a-inf": (["verify", "--a", "1,inf"], None, "finite"),
    "half-width-nan": (["verify", "--a", "1,2", "--half-width", "nan"], None, "half_width"),
    "center-nan": (["verify", "--a", "1,2", "--center", "0.1,nan"], None, "center"),
    "tolerance-negative": (
        ["verify", "--config", "{file}"], {"tolerances": {"frobenius": -1}},
        "tolerance frobenius"),
    "tolerance-not-number": (
        ["verify", "--config", "{file}"], {"tolerances": {"frobenius": "abc"}},
        "tolerance frobenius"),
    "points-not-integer": (
        ["verify", "--config", "{file}"], {"grid": {"points_per_axis": "5"}},
        "points per axis"),
    "b-from-a-not-number": (["construct", "--b-from-a", "1,x"], None, "curvatures"),
    "b-from-a-one-value": (["construct", "--b-from-a", "1"], None, "two curvatures"),
    "cmat-wrong-size": (
        ["construct", "--constants", "{file}"], {"b": B3, "cmat": [1, 0, 0, 1]},
        "4 cmat entries"),
    "tau-a-not-number": (["tau", "--a", "1,x"], None, "--a"),
}


@pytest.mark.parametrize("argv,data,fragment", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_exits_2_with_one_error_line(argv, data, fragment, tmp_path, capsys):
    path = tmp_path / "input.json"
    if data is not None:
        path.write_text(json.dumps(data))
    argv = [str(path) if arg == "{file}" else arg for arg in argv]
    assert run(argv + ["--no-timestamp", "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment in err
    assert not (tmp_path / "r.json").exists()
