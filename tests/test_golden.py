"""The README command-line examples against committed reference reports.

Each example runs in-process with ``--no-timestamp``.  Keys, strings,
booleans, statuses and ``config_echo`` must match exactly; floats match
within 1e-12 + 1e-9 |x|, which absorbs BLAS-dependent rounding while
catching any change in the computation.
"""

import csv
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from lagkit.cli import main
from lagkit.verifier import CHECKS, CONSTRUCT_CHECKS, MODEL_CHECKS, TAU_CHECKS

GOLDEN = Path(__file__).parent / "golden"

EXAMPLES = {
    "verify-hilf": ["verify", "--surface", "hilf", "--a", "1,2,3",
                    "--grid", "5", "--half-width", "0.4"],
    "invariants-hilf": ["invariants", "--surface", "hilf", "--a", "1,2",
                        "--grid", "5", "--half-width", "0.3"],
    "verify-torus": ["verify", "--surface", "torus",
                     "--params", '{"R": 2, "r_tube": 1}',
                     "--grid", "5", "--half-width", "0.9"],
    "verify-hilf-repeated": ["verify", "--surface", "hilf",
                             "--params", '{"a":[1,2],"multiplicities":[2,1]}',
                             "--grid", "3", "--half-width", "0.3"],
    "verify-hilf-rank-deficient": ["verify", "--surface", "hilf", "--a", "1,2",
                                   "--grid", "7", "--half-width", "1.5"],
    "construct": ["construct", "--b-from-a", "1,2,3", "--seed", "1",
                  "--grid", "5", "--half-width", "0.5"],
    "tau": ["tau", "--a", "1,2", "--grid", "5", "--half-width", "0.4"],
    "verify-degenerate": ["verify", "--surface", "degenerate-hilf"],
}


def assert_close(got, want, path="$"):
    if isinstance(want, float) or isinstance(got, float):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert isinstance(want, (int, float)) and not isinstance(want, bool), path
        assert abs(got - want) <= 1e-12 + 1e-9 * abs(want), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_readme_example_matches_golden(name, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = EXAMPLES[name] + ["--no-timestamp", "--out", str(out)]
    samples = tmp_path / "points.csv"
    if name == "invariants-hilf":
        argv += ["--samples", str(samples)]
    assert main(argv) == 0
    capsys.readouterr()
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert got["config_echo"] == want["config_echo"]
    assert_close(got, want)
    if name == "invariants-hilf":
        with open(samples, newline="") as fh:
            rows = list(csv.reader(fh))
        with open(GOLDEN / "invariants-hilf.csv", newline="") as fh:
            expected = list(csv.reader(fh))
        assert rows[0] == expected[0]
        assert_close(
            [[float(v) for v in row] for row in rows[1:]],
            [[float(v) for v in row] for row in expected[1:]],
        )


def test_regen_diff_names_added_and_removed_keys():
    from tests.golden.regen import moved

    want = {"a": 1.0, "b": {"c": "x", "d": 2.0}, "gone": 0}
    got = {"a": 1.0, "b": {"c": "y", "d": 2.0, "e": []}, "new": 1}
    assert list(moved(got, want)) == [
        "$.b.c", "$.b.e (added)", "$.gone (removed)", "$.new (added)"]
    # Checks are matched by name: a row added or removed is named, and the
    # rows on both sides are compared with each other wherever they sit.
    rows = [{"name": "b_trace_zero", "residual": 1e-16},
            {"name": "two_curvature_constants", "residual": 2e-15}]
    got = {"checks": [rows[0], {"name": "c_cross_agreement", "residual": 5e-15}],
           "errors": [{"index": 0, "reason": "umbilic point"}]}
    want = {"checks": rows, "errors": [{"index": 1, "reason": "umbilic point"}]}
    assert list(moved(got, want)) == [
        "$.checks[two_curvature_constants] (removed)", "$.checks[c_cross_agreement] (added)",
        "$.errors[0].index"]
    swapped = {"checks": [{**rows[1], "residual": 1.0}, rows[0]]}
    assert list(moved(swapped, {"checks": rows})) == [
        "$.checks (reordered)", "$.checks[two_curvature_constants].residual"]


def test_every_golden_check_is_one_table_row():
    # Each command records its checks from the verifier's tables alone, and
    # a golden covers every row.
    rows = [row.name for table in (CHECKS, CONSTRUCT_CHECKS, MODEL_CHECKS, TAU_CHECKS)
            for row in table]
    names = {check["name"] for path in GOLDEN.glob("*.json")
             for check in json.loads(path.read_text())["checks"]}
    assert sorted(names) == sorted(rows)


def test_each_dumped_report_hashes_to_its_line(tmp_path):
    # report_hashes.py --dump writes NAME.out (stdout) and NAME.csv for each
    # printed line NAME SHA1, so that two runs show what moved.
    script = GOLDEN / "report_hashes.py"
    lines = subprocess.run([sys.executable, str(script), "--dump", str(tmp_path)],
                           capture_output=True, text=True, check=True).stdout.splitlines()
    files = {}
    for line in lines:
        name, digest = line.split()[:2]
        files[name if name.endswith(".csv") else f"{name}.out"] = digest
    assert sorted(files) == sorted(p.name for p in tmp_path.iterdir())
    for fname, digest in files.items():
        assert hashlib.sha1((tmp_path / fname).read_bytes()).hexdigest() == digest, fname


def test_against_base_lists_what_moved(tmp_path, capsys):
    # Two report_hashes.py --dump directories: one identical case, a moved
    # float, an added key and a CSV with a moved value; each line NAME SHA1
    # as report_hashes.py prints it.
    from tests.golden.against_base import report_bytes

    sides = {
        "same.out": ('{"a": 1.0}\nsummary\n', '{"a": 1.0}\nsummary\n'),
        "float.out": ('{"a": 1.0, "b": [2.0]}\n', '{"a": 1.0, "b": [2.5]}\n'),
        "key.out": ('{"a": 1.0}\n', '{"a": 1.0, "k": 0}\n'),
        "rows.csv": ("x,y\n1.0,2.0\n", "x,y\n1.0,2.5\n"),
    }
    lines = {}
    for i, side in enumerate(("base", "head")):
        (tmp_path / side).mkdir()
        for fname, texts in sides.items():
            (tmp_path / side / fname).write_text(texts[i])
        lines[side] = sorted(f"{fname.removesuffix('.out')} "
                             f"{hashlib.sha1(texts[i].encode()).hexdigest()}"
                             for fname, texts in sides.items())
    report_bytes(tmp_path / "base", tmp_path / "head", lines["base"], lines["head"])
    assert capsys.readouterr().out.splitlines() == [
        "- differs: float", "  - $.b[0]",
        "- differs: key", "  - $.k (added)",
        "- differs: rows.csv", "  - rows.csv[1][1]",
    ]
    report_bytes(tmp_path / "base", tmp_path / "base", lines["base"], lines["base"])
    assert capsys.readouterr().out.splitlines() == ["all 4 examples byte-identical"]


def test_against_base_alternates_the_trees(monkeypatch):
    # Each tree is measured once per round, the two in turn, and only the
    # first round dumps reports; a case's wall is the median of its rounds.
    from tests.golden import against_base

    assert against_base.ROUNDS >= 3
    monkeypatch.setattr(against_base, "ROUNDS", 3)
    walls = {"head": iter([3.0, 1.0, 2.0]), "base": iter([5.0, 4.0, 9.0])}
    calls = []

    def run_tree(src, dump):
        calls.append((src, dump))
        return {"hashes": [], "analyze": {"case": {"wall": next(walls[src]), "peak": 1.0}}}

    monkeypatch.setattr(against_base, "run_tree", run_tree)
    figures = against_base.alternate({"head": "head", "base": "base"}, "tmp")
    assert calls == [("head", "tmp/head"), ("base", "tmp/base"), ("head", ""), ("base", ""),
                     ("head", ""), ("base", "")]
    assert figures["head"]["analyze"]["case"] == dict(wall=2.0, wall_lo=1.0, wall_hi=3.0, peak=1.0)
    assert figures["base"]["analyze"]["case"] == dict(wall=5.0, wall_lo=4.0, wall_hi=9.0, peak=1.0)


def test_statement_peaks_names_lines_of_invariants_by_peak():
    # The probe against_base.py prints: each line it names is a statement
    # of invariants.py, as the file holds it, and the highest comes first.
    from lagkit import invariants
    from lagkit.families import HilfParams, hilf_chart
    from tests.conftest import mesh
    from tests.golden.against_base import statement_peaks

    chart, grid = hilf_chart(HilfParams(a=(1.0, 2.0, 3.0))), mesh(3, 0.4, 3)
    statements = statement_peaks(chart, grid)
    lines = Path(invariants.__file__).read_text().splitlines()
    assert len(statements) > 50
    for line, source, _ in statements:
        assert source and source == lines[line - 1].strip() and not source.startswith("#")
    peaks = [peak for *_, peak in statements]
    assert peaks == sorted(peaks, reverse=True)
