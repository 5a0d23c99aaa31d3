"""Print the sha1 of each example's ``--no-timestamp`` report bytes.

    python tests/golden/report_hashes.py [--src DIR] [--dump DIR]

Runs every example of ``tests/test_golden.py`` and a few larger cases
(hilf n = 4 on 5^4, hilf n = 5 on 3^5, the torus on 33^2, hilf n = 3 on
15^3, which ``analyze`` runs in row blocks, the torus on 9^2 across
the circle v = pi/2 of vanishing curvature, the benchmark's construct
path at seeds 0, 7 and 1000, construct with the identity matrix and
from a constants file of nonzero beta and gamma, tau with
multiplicities (2, 1), the degenerate model at n = 4 and on a wide
grid, hilf of mixed signs at n = 4, and a ``--config`` file of every
section with one flag over it) in-process
through ``lagkit.cli.main`` with ``--no-timestamp`` and prints one line ``NAME SHA1`` per case, sorted by
name, the hash taken over everything the call writes to stdout.  The
cases of ``SAMPLES`` also write ``--samples`` and print a line
``NAME.csv SHA1`` of the CSV bytes after their own.
``--src`` imports ``lagkit`` from another source tree (for example a
checkout of the base commit), so two runs of this script compare the
bytes of two versions of the code on the same cases.  ``--dump`` also
writes each case's stdout to ``NAME.out`` and its CSV to ``NAME.csv`` in
another directory, so that two such runs show what moved.  A refactor that
keeps every hash is byte-identical; the golden tests only hold floats
to 1e-9.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

EXTRA = {
    "verify-hilf4-5": ["verify", "--surface", "hilf", "--a", "1,2,3,4",
                       "--grid", "5", "--half-width", "0.3"],
    "verify-hilf5-3": ["verify", "--surface", "hilf", "--a", "1,2,3,4,5",
                       "--grid", "3", "--half-width", "0.3"],
    # A grid past invariants.BLOCK_BYTES: analyze runs it in row blocks.
    "verify-hilf3-15": ["verify", "--surface", "hilf", "--a", "1,2,3", "--grid", "15",
                        "--half-width", "0.4"],
    "verify-torus-wide": ["verify", "--surface", "torus",
                          "--params", '{"R": 2, "r_tube": 1}',
                          "--grid", "33", "--half-width", "0.9"],
    # The torus across the circle v = pi/2, where k2 vanishes: one row of
    # point errors, the rest of the grid checked.
    "verify-torus-circle": ["verify", "--surface", "torus", "--grid", "9",
                            "--center", "0,1.5707963267948966", "--half-width", "0.5"],
    # construct-hilf3 of perfbench, whose worst margin reads the Taylor N:
    # seed s * 1000 + call is the matrix of call ``call`` at seed s.
    **{f"construct-hilf3-{seed}": ["construct", "--b-from-a", "1,2,3", "--grid", "5",
                                   "--half-width", "0.5", "--seed", str(seed)]
       for seed in (0, 7, 1000)},
    # Every other construct case takes b from a, so its beta, gamma, shift d
    # and phi are zero: a constants file, CONSTANTS, with none of them zero.
    "construct-constants": ["construct", "--constants", "{constants}", "--grid", "3",
                            "--half-width", "0.5"],
    # The one construct input on which explicit_family_roundtrip runs, not skips.
    "construct-identity": ["construct", "--b-from-a", "1,2,3", "--identity", "--grid", "3",
                           "--half-width", "0.5"],
    # The degenerate model and tau at n > 2.
    "tau-mult": ["tau", "--params", '{"a":[1,-2],"multiplicities":[2,1]}', "--grid", "4",
                 "--half-width", "0.7"],
    "verify-degenerate-4": ["verify", "--surface", "degenerate-hilf", "--params",
                            '{"a":[1,2,3,4]}', "--grid", "3", "--center", "0.1,0.2,-0.3,0.05"],
    # The degenerate model on a wide grid, where it fails on rounding (the
    # one failing case, ROADMAP D23; its hash changes when D23 is mended).
    "verify-degenerate-wide": ["verify", "--surface", "degenerate-hilf", "--a", "1,2",
                               "--grid", "3", "--half-width", "1e7"],
    # Mixed signs at n = 4, and two clusters of two curvatures each.
    "verify-hilf-mixed-4": ["verify", "--surface", "hilf", "--params",
                            '{"a":[1,-2],"multiplicities":[2,2],"phi":0.3}', "--grid", "3",
                            "--half-width", "0.3", "--center", "0.3,0.3,0.3,0.3"],
    # Samples of a grid with irregular rows, which analyze drops.
    "invariants-hilf-rank-deficient": ["invariants", "--surface", "hilf", "--a", "1,2",
                                       "--grid", "7", "--half-width", "1.5"],
    # The config route, whose echo each version of the CLI rewrites: a file
    # of every section, CONFIG, and one flag over a field of it.
    "verify-config": ["verify", "--config", "{config}", "--half-width", "0.25"],
}

CONFIG = {
    "surface": {"kind": "hilf", "params": {"a": [1, 2, 3], "phi": 0.1}},
    "grid": {"center": [0.05, -0.05, 0.1], "half_width": 0.3, "points_per_axis": 3},
    "seed": 3,
}

# b of the curvatures 1, 2, 3, an orthogonal matrix with no zero on its
# diagonal, and the beta1, beta3 and gamma1 of tests/test_mutants.py.
CONSTANTS = {
    "b": [-0.7925939239012171, 0.22645540682891915, 0.5661385170722979],
    "cmat": [[0.6, 0.8, 0.0], [-0.8, 0.6, 0.0], [0.0, 0.0, 1.0]],
    "beta1": [0.3, -0.1, 0.2], "beta3": [0.1, 0.05, -0.2], "gamma1": [0.01, 0.0, -0.02],
}

# The cases whose --samples CSV is hashed too.
SAMPLES = ("invariants-hilf", "invariants-hilf-rank-deficient")


def _sha1(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()


def main_hashes(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the lagkit package (default: this tree's src)")
    parser.add_argument("--dump", metavar="DIR",
                        help="also write each case's stdout and CSV to DIR")
    args = parser.parse_args(argv)
    sys.path[:0] = [args.src, str(ROOT)]
    import lagkit
    from lagkit.cli import main
    from tests.test_golden import EXAMPLES

    if Path(args.src).resolve() not in Path(lagkit.__file__).resolve().parents:
        raise SystemExit(f"lagkit was imported from {lagkit.__file__}, not from {args.src}")

    cases = {**EXAMPLES, **EXTRA}
    if args.dump:
        Path(args.dump).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        files = {}   # a case's placeholder argument: the file written for it
        for arg, data in (("{config}", CONFIG), ("{constants}", CONSTANTS)):
            files[arg] = Path(tmp) / f"{arg.strip('{}')}.json"
            files[arg].write_text(json.dumps(data))
        for name in sorted(cases):
            samples = Path(tmp) / f"{name}.csv"
            argv = [str(files.get(arg, arg)) for arg in cases[name]]
            argv += ["--no-timestamp"]
            if name in SAMPLES:
                argv += ["--samples", str(samples)]
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    status = main(argv)
            except SystemExit as exc:   # an example this version's parser refuses
                status = exc.code
            print(f"{name} {_sha1(out.getvalue().encode())}"
                  + ("" if status == 0 else f" exit={status}"))
            if args.dump:
                (Path(args.dump) / f"{name}.out").write_bytes(out.getvalue().encode())
                if samples.exists():
                    shutil.copyfile(samples, Path(args.dump) / samples.name)
            if name in SAMPLES:
                digest = _sha1(samples.read_bytes()) if samples.exists() else "missing"
                print(f"{name}.csv {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main_hashes())
