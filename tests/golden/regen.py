"""Rerun the golden examples and list or rewrite what moved.

    python tests/golden/regen.py [--diff] [NAME ...]

Runs each example of ``tests/test_golden.py`` (all of them when no NAME
is given) in-process through ``lagkit.cli.main`` with ``--no-timestamp``
and prints every JSON or CSV path whose value moved beyond the golden
tolerance of ``test_golden.assert_close`` (or the file name, for an
example that has no golden yet).  Without ``--diff`` the
named golden files are rewritten with the new output; with ``--diff``
nothing is written and the exit status is 1 when anything moved.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from lagkit.cli import main  # noqa: E402
from tests.test_golden import EXAMPLES, GOLDEN, assert_close  # noqa: E402


def moved(got, want, path="$"):
    """Yield every path where ``got`` leaves the golden tolerance of ``want``."""
    if isinstance(want, dict) and isinstance(got, dict) and sorted(got) == sorted(want):
        for key in want:
            yield from moved(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        for i, (g, w) in enumerate(zip(got, want)):
            label = w["name"] if isinstance(w, dict) and "name" in w else i
            yield from moved(g, w, f"{path}[{label}]")
    else:
        try:
            assert_close(got, want, path)
        except AssertionError:
            yield path


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return [rows[0]] + [[float(v) for v in row] for row in rows[1:]]


def run_example(name: str, workdir: Path) -> dict:
    """Run one example; returns {golden file name: produced file}."""
    out = workdir / f"{name}.json"
    argv = EXAMPLES[name] + ["--no-timestamp", "--out", str(out)]
    produced = {out.name: out}
    if name == "invariants-hilf":
        samples = workdir / f"{name}.csv"
        argv += ["--samples", str(samples)]
        produced[samples.name] = samples
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    if status != 0:
        raise SystemExit(f"{name}: lagkit exited with status {status}")
    return produced


def main_regen(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--diff", action="store_true",
                        help="only list the moved paths; write nothing")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help=f"examples to rerun (default: all): {', '.join(sorted(EXAMPLES))}")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.names) - set(EXAMPLES))
    if unknown:
        parser.error(f"unknown example(s): {', '.join(unknown)}")
    any_moved = False
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.names or sorted(EXAMPLES):
            for fname, path in run_example(name, Path(tmp)).items():
                golden = GOLDEN / fname
                if not golden.exists():
                    paths = [f"{fname} (new)"]
                elif fname.endswith(".csv"):
                    paths = list(moved(_read_csv(path), _read_csv(golden), fname))
                else:
                    paths = list(moved(json.loads(path.read_text()),
                                       json.loads(golden.read_text()), fname))
                for p in paths:
                    print(p)
                any_moved = any_moved or bool(paths)
                if not args.diff:
                    shutil.copyfile(path, golden)
    return 1 if args.diff and any_moved else 0


if __name__ == "__main__":
    sys.exit(main_regen())
