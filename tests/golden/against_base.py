"""Compare this tree's reports, line counts and ``analyze`` figures with a base tree's.

    python tests/golden/against_base.py [BASE_SRC]

Measures this tree's ``src`` and, when given, the source tree BASE_SRC
that holds another version's ``lagkit`` (for example ``src`` of a
worktree of the base commit), each in a subprocess run with
``PYTHONPATH=<src>:.`` from this tree, ``ROUNDS`` times with the trees
taken in turn, so that a drift of the host's speed falls on both: the
lines and dumps of ``report_hashes.py`` (first round only), and on each
case of ``cases()`` the peak and retained memory of ``analyze``
(``test_memory.traced_analyze``), its row blocks, its Taylor product
steps and runs (``test_taylor_kernel.product_counts``) and its best-of-5
wall time, of which the median over the rounds is printed with its range;
``tests/test_memory.py`` and ``tests/test_taylor_kernel.py`` bound those
figures, and this script records them.  On the cases of ``PROBED`` it
also takes the peak of each statement of ``lagkit/invariants.py``
(``statement_peaks``), so that a change to ``analyze`` names the
statement its peak moved to.  Prints Markdown in three sections:

* with BASE_SRC only, "Report bytes against the base commit": every
  example whose ``--no-timestamp`` report or CSV is not byte-identical
  to the base's, and under it the paths that moved beyond the golden
  tolerance and the keys added or removed (``regen.moved``);
* ``wc -l`` of each module and in total, then ``tests/line_count.py``;
  the base's counts follow after "At the base commit:";
* the ``analyze`` figures of each case, the base's after ``base:``;
  after the memory figures, the three statements of highest peak of
  each case of ``PROBED`` on either tree.

It gates nothing: a change that regenerates goldens changes bits on
purpose, and wall times depend on the host.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import linecache
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

# Each tree is measured this many times, alternating with the other.
ROUNDS = 3

# Each section's title, the figures of a case on either side, and those of the head alone.
SECTIONS = {
    "tracemalloc of `analyze`": ("peak {peak:.3f} MB in {blocks} row block(s), retained "
                                 "{retained:.3f} MB", ", transient {transient:.2f} KB per point"),
    f"wall of `analyze`, in-process, the median of {ROUNDS} alternating rounds' best of 5 "
    "with its range, and its Taylor product steps and runs":
        ("{wall:.1f} ms ({wall_lo:.1f}-{wall_hi:.1f}), {steps} steps, {runs} runs", ""),
}


# The cases whose statements ``statement_peaks`` ranks, and how many it prints.
PROBED, TOP = ("torus-33", "hilf3-5"), 3


def cases() -> dict:
    """``test_memory.CASES``; hilf n = 4 on 3^4, a small batch, where a
    slowdown shows beside the benchmark's larger ones; and hilf n = 3 on
    15^3 and the torus on 99^2, which ``analyze`` runs in row blocks."""
    from lagkit.families import HilfParams, hilf_chart, torus_chart
    from tests.conftest import mesh
    from tests.test_memory import CASES
    return {**CASES,
            "hilf4-3": lambda: (hilf_chart(HilfParams(a=(1.0, 2.0, 3.0, 4.0))), mesh(4, 0.3, 3)),
            "hilf3-15": lambda: (hilf_chart(HilfParams(a=(1.0, 2.0, 3.0))), mesh(3, 0.4, 15)),
            "torus-99": lambda: (torus_chart(2.0, 1.0), mesh(2, 0.9, 99))}


def statement_peaks(chart, grid) -> list:
    """[(line, source, bytes)] for each line of ``lagkit/invariants.py``
    that one ``analyze(chart, grid)`` runs, the highest first: the peak of
    traced memory from its line event to the next line event of that file,
    so a line that calls into another module holds the peak of the call.
    ``tracemalloc.reset_peak`` runs at each line event under
    ``sys.settrace``; the probe's own memory (the trace's frames and
    records) is subtracted, as the traced top less the peak of an untraced
    call (``test_memory.traced_analyze``)."""
    from lagkit import invariants
    from tests.test_memory import traced_analyze
    path, peaks, last = invariants.__file__, {}, [None]

    def close():
        """The peak since the last line event, to that line."""
        if last[0] is not None:
            peaks[last[0]] = max(peaks.get(last[0], 0), tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    def trace(frame, event, arg):
        if frame.f_code.co_filename != path:
            return None
        if event == "line":
            close()
            last[0] = frame.f_lineno
        return trace

    untraced = traced_analyze(chart, grid)[0]
    gc.collect()
    tracemalloc.start()
    sys.settrace(trace)
    try:
        invariants.analyze(chart, grid)
    finally:
        sys.settrace(None)
        close()
        tracemalloc.stop()
    overhead = max(peaks.values()) - untraced
    return sorted(((line, linecache.getline(path, line).strip(), peak - overhead)
                   for line, peak in peaks.items()), key=lambda s: (-s[2], s[0]))


def measure(src: str, dump: str) -> None:
    """Print the JSON of the tree ``src``'s figures: the ``analyze``
    figures of each case, the top statements of each case of ``PROBED``
    (``statement_peaks``) and, if ``dump`` is not empty, the lines of
    ``report_hashes.py``, whose reports it dumps there.  Imports
    ``lagkit`` from sys.path."""
    from lagkit.invariants import _row_blocks, analyze
    from tests.golden.report_hashes import main_hashes
    from tests.test_memory import traced_analyze
    from tests.test_taylor_kernel import product_counts
    # The figures come first: each case then runs after the cases before it
    # alone, as in a process that measures analyze and nothing else.
    figures, statements = {}, {}
    for name, case in cases().items():
        chart, grid = case()
        peak, retained = traced_analyze(chart, grid)
        steps, runs = product_counts(chart, grid)
        if name in PROBED:
            statements[name] = statement_peaks(chart, grid)[:TOP]
        walls = []
        for _ in range(5):
            start = time.perf_counter()
            analyze(chart, grid)
            walls.append(time.perf_counter() - start)
        figures[name] = dict(peak=peak / 1e6, retained=retained / 1e6,
                             transient=(peak - retained) / len(grid) / 1e3,
                             blocks=_row_blocks(chart.n, len(grid)), steps=steps, runs=runs,
                             wall=min(walls) * 1e3)
    with contextlib.redirect_stdout(io.StringIO()) as hashes:
        if dump:
            main_hashes(["--src", src, "--dump", dump])
    print(json.dumps({"hashes": hashes.getvalue().splitlines(), "analyze": figures,
                      "statements": statements}))


def run_tree(src: Path, dump: str) -> dict:
    """The figures ``measure`` prints for the tree ``src``, run in a
    subprocess with ``PYTHONPATH=<src>:.`` from this tree."""
    return json.loads(subprocess.run(
        [sys.executable, "-c", "import sys; from tests.golden.against_base import measure; "
         "measure(*sys.argv[1:])", str(src), dump],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": f"{src}:."}, stdout=subprocess.PIPE,
        text=True, check=True).stdout)


def alternate(trees: dict, tmp: str) -> dict:
    """Each tree's figures from ``ROUNDS`` rounds of ``run_tree``, the trees
    taken in turn in each: the first round's, with its reports dumped to
    ``tmp``/side, and of each case's wall the median over the rounds and
    its range."""
    runs = {side: [] for side in trees}
    for k in range(ROUNDS):
        for side, src in trees.items():
            runs[side].append(run_tree(src, f"{tmp}/{side}" if k == 0 else ""))
    for first, *rest in runs.values():
        for name, fig in first["analyze"].items():
            walls = [run["analyze"][name]["wall"] for run in (first, *rest)]
            fig.update(wall=statistics.median(walls), wall_lo=min(walls), wall_hi=max(walls))
    return {side: rounds[0] for side, rounds in runs.items()}


def _report(path: Path):
    """The report of a dumped stdout (None if it holds none) and the lines after it."""
    text = path.read_text()
    try:
        payload, end = json.JSONDecoder().raw_decode(text)
    except ValueError:
        return None, text
    return payload, text[end:]


def report_bytes(base: Path, head: Path, base_lines: list, head_lines: list) -> None:
    """Print what differs between two ``report_hashes.py --dump`` directories,
    given the lines each run printed."""
    from tests.golden.regen import _read_csv, moved
    if head_lines == base_lines:
        print(f"all {len(head_lines)} examples byte-identical")
    for name in [line.split()[0] for line in head_lines if line not in base_lines]:
        print(f"- differs: {name}")
        fname = name if name.endswith(".csv") else f"{name}.out"
        if not ((base / fname).exists() and (head / fname).exists()):
            paths = ["written on one side only"]
        elif name.endswith(".csv"):
            paths = list(moved(_read_csv(head / fname), _read_csv(base / fname), fname))
        else:
            (got, got_tail), (want, want_tail) = _report(head / fname), _report(base / fname)
            paths = (["no report on one side"] if got is None or want is None
                     else list(moved(got, want)))
            if got_tail != want_tail:
                paths.append("summary lines")
        for path in paths or ["bits within the golden tolerance only"]:
            print(f"  - {path}")


def line_counts(src: Path, base: bool) -> None:
    """Print ``wc -l`` of the modules under ``src``: the total, then (at the
    head) each module in a fenced block; then ``tests/line_count.py``."""
    from tests.line_count import main as code_lines
    paths = [str(p.relative_to(src.parent)) for p in sorted((src / "lagkit").glob("*.py"))]
    wc = subprocess.run(["wc", "-l", *paths], cwd=src.parent, capture_output=True, text=True,
                        check=True).stdout.splitlines()
    print(*(["At the base commit:"] if base else []), wc[-1], sep="\n")
    if not base:
        print("```", *sorted(wc, key=lambda line: (int(line.split()[0]), line)), "```", sep="\n")
    code_lines(["--src", str(src)])


def print_statements(figures: dict) -> None:
    """Print the statements of highest peak of each case of ``PROBED``,
    each tree's in turn."""
    print(f"the {TOP} statements of `invariants.py` of highest peak, by tracemalloc less the "
          "probe's overhead (`statement_peaks`):")
    print("```")
    for name in PROBED:
        for side, fig in figures.items():
            print(f"  {name}{'' if side == 'head' else ' base'}:")
            for line, source, peak in fig["statements"][name]:
                print(f"    {peak / 1e6:.3f} MB  line {line}: {source}")
    print("```")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", metavar="BASE_SRC",
                        help="source tree of the base's lagkit (default: measure this tree only)")
    trees = {"head": ROOT / "src"}
    if (base := parser.parse_args(argv).base) is not None:
        trees["base"] = Path(base).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        figures = alternate(trees, tmp)
        if "base" in trees:
            print("Report bytes against the base commit:")
            report_bytes(Path(tmp, "base"), Path(tmp, "head"), figures["base"]["hashes"],
                         figures["head"]["hashes"])
    for side, src in trees.items():
        line_counts(src, side == "base")
    base_figures = figures.get("base", {}).get("analyze", {})
    for k, (title, (form, head_only)) in enumerate(SECTIONS.items()):
        print(title + (", the base commit's after `base:`" if base_figures else "") + ":")
        print("```")
        for name, fig in figures["head"]["analyze"].items():
            line = f"  {name}: {form.format(**fig)}{head_only.format(**fig)}"
            if name in base_figures:
                line += f"; base: {form.format(**base_figures[name])}"
            print(line)
        print("```")
        if k == 0:
            print_statements(figures)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
