"""Mutate lagkit one operator at a time and count the mutants the reports see.

    python tests/golden/mutation_sweep.py [--src DIR] [MODULE ...]

For each operator site of each MODULE (default: ``invariants``,
``charts``, ``fields``, ``taylor``, ``verifier`` and ``construction``)
one mutant is written to a temporary copy of the ``lagkit`` package
under DIR (default: this tree's src).  A mutant swaps ``+``/``-`` or
``*``/``/``, flips one comparison (``<``/``>=``, ``>``/``<=``,
``==``/``!=``) or swaps ``and``/``or``; the mutated module is written
back with ``ast.unparse``.  Each mutant runs
``tests/golden/report_hashes.py --src`` on its copy, two at a time, and
its output is compared with the unmutated tree's:

* killed -- some report or CSV hash, or some exit status, changed;
* raised -- the run raised past the CLI (an exception ``lagkit`` does
  not turn into an error line); each run is capped at 4 GiB of address
  space, so that a mutant asking numpy for a huge array raises instead
  of filling the machine's memory;
* timed out -- the run took ten times the unmutated run and was stopped;
  on a loaded host a slow kill can land here, so these sites are listed;
* identical -- every hash is unchanged.

Prints a Markdown table of the four counts per module, then each
identical, each raised and each timed-out site as ``module:line (op ->
op) source``, so that a site that moves between outcomes can be named.
The sweep over the default modules takes several minutes; it gates
nothing.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
HASHES = Path(__file__).resolve().parent / "report_hashes.py"
OUTCOMES = ("killed", "raised", "timed out", "identical")
# Runs the script named by its first argument under the address-space cap.
CAPPED = ("import resource, runpy, sys; resource.setrlimit(resource.RLIMIT_AS, (4 << 30,) * 2); "
          "sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name='__main__')")

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Lt: "<",
           ast.GtE: ">=", ast.Gt: ">", ast.LtE: "<=", ast.Eq: "==", ast.NotEq: "!=",
           ast.And: "and", ast.Or: "or"}


def sites(tree: ast.AST) -> list:
    """Every mutable operator of ``tree`` as (node, index, op class): index
    is None for a binary or boolean operator and the position in ``ops``
    for a comparison, in the order of ``ast.walk``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.BoolOp)) and type(node.op) in SWAPS:
            found.append((node, None, type(node.op)))
        elif isinstance(node, ast.Compare):
            found += [(node, i, type(op)) for i, op in enumerate(node.ops) if type(op) in SWAPS]
    return found


def operand_line(node, index) -> int:
    """The line of the operand right of a site's operator, the operator's
    own line where an expression is wrapped before it."""
    if index is not None:
        return node.comparators[index].lineno
    return (node.right if isinstance(node, ast.BinOp) else node.values[1]).lineno


def mutant(source: str, k: int) -> str:
    """``source`` with its k-th site swapped, unparsed."""
    tree = ast.parse(source)
    node, index, op = sites(tree)[k]
    if index is None:
        node.op = SWAPS[op]()
    else:
        node.ops[index] = SWAPS[op]()
    return ast.unparse(tree)


def run_hashes(src: Path, timeout=None):
    """The output of report_hashes.py on the lagkit under ``src``: None
    where it raised, "timed out" where it ran past ``timeout`` seconds."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    try:
        done = subprocess.run([sys.executable, "-c", CAPPED, str(HASHES), "--src", str(src)],
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "timed out"
    return done.stdout if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory that holds the lagkit package (default: this tree's src)")
    parser.add_argument("modules", nargs="*", metavar="MODULE",
                        default=["invariants", "charts", "fields", "taylor", "verifier",
                                 "construction"],
                        help="lagkit modules to mutate")
    args = parser.parse_args(argv)
    package = Path(args.src) / "lagkit"
    sources = {name: (package / f"{name}.py").read_text(encoding="utf-8")
               for name in args.modules}
    start = time.perf_counter()
    baseline = run_hashes(Path(args.src))
    if baseline is None:
        raise SystemExit(f"report_hashes.py fails on the unmutated tree {args.src}")
    timeout = 10 * (time.perf_counter() - start)
    jobs = [(name, k) for name, source in sources.items()
            for k in range(len(sites(ast.parse(source))))]

    def outcome(job):
        name, k = job
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "lagkit"
            shutil.copytree(package, copy, ignore=shutil.ignore_patterns("__pycache__"))
            (copy / f"{name}.py").write_text(mutant(sources[name], k), encoding="utf-8")
            out = run_hashes(Path(tmp), timeout)
        if out is None:
            return "raised"
        return out if out == "timed out" else "identical" if out == baseline else "killed"

    with ThreadPoolExecutor(2) as pool:
        results = dict(zip(jobs, pool.map(outcome, jobs)))

    print("| module | sites | " + " | ".join(OUTCOMES) + " |")
    print("| --- " * (len(OUTCOMES) + 2) + "|")
    for name in sources:
        counts = [sum(1 for (m, _), r in results.items() if m == name and r == kind)
                  for kind in OUTCOMES]
        print(f"| `{name}` | {sum(counts)} | " + " | ".join(map(str, counts)) + " |")
    print(f"\n{len(jobs)} mutants in {time.perf_counter() - start:.0f} s.")
    for kind in ("identical", "raised", "timed out"):
        print(f"\n{kind.capitalize()}:\n```")
        for name, source in sources.items():
            lines = source.splitlines()
            listed = [(operand_line(node, index), op) for k, (node, index, op)
                      in enumerate(sites(ast.parse(source))) if results[name, k] == kind]
            for line, op in sorted(listed, key=lambda site: site[0]):
                swap = f"({SYMBOLS[op]} -> {SYMBOLS[SWAPS[op]]})"
                print(f"{name}:{line} {swap} {lines[line - 1].strip()}")
        print("```")
    return 0


if __name__ == "__main__":
    sys.exit(main())
