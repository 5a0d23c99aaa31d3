"""The README command-line examples against committed reference reports.

Each example runs in-process with ``--no-timestamp``.  Keys, strings,
booleans, statuses and ``config_echo`` must match exactly; floats match
within 1e-12 + 1e-9 |x|, which absorbs BLAS-dependent rounding while
catching any change in the computation.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from lagkit.cli import main

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
