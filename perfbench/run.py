"""Benchmark of the `lagkit` CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of ``workloads.py``, or ``all`` to run each in turn.
The benchmark imports lagkit from ``src/`` of this checkout and calls
``lagkit.cli.main`` in-process, one call at a time from one process (a
closed loop with one client).  One run of a workload:

1. makes one traced warm-up call, which also counts chart evaluations;
2. for ``--seconds``, repeats a step: the reference kernel, a timed
   untraced call (with ``--trace 1`` followed by a traced call on equal
   inputs), then one ``setup_s`` sample, a fresh interpreter that imports
   the CLI and builds the workload's inputs, the cost a CLI user pays on
   every invocation;
3. makes one call under ``tracemalloc`` for ``peak_mb``.

Every call is gated: exit status 0, every executed check passes, the
classification matches the workload's expected verdicts, and calls with
equal inputs give byte-identical ``--no-timestamp`` reports.  A traced
call must also account for its wall time in span self times and see
every chart point pass through ``jet_arrays``.  Each miss is printed and
counted in ``failed``; none aborts the run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` ones with
``--trace 1``.  The lines before it print every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

from workloads import LEFT_OUT, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
END_TO_END = (
    "wall_ref", "wall_s", "setup_s", "peak_mb", "chart_evals_per_point", "worst_margin",
    "checks_failed_frac", "checks_passed_frac",
)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def limit_threads(nproc: int) -> None:
    """Cap every native thread pool at nproc; must run before numpy loads."""
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def environment(nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


class Reference:
    """A fixed numpy kernel, timed just before each untraced call.

    On a shared 2-core host the same verify call was seen to take from
    1.2 s to 2.3 s as the host's speed drifted over minutes, which moves a
    run's median ``wall_s`` by up to a third.  The kernel slows down
    together with the call, so the call's wall time in units of the
    kernel's (``wall_ref``) stays steady.  The kernel mirrors the lift's
    batched 3x3 linear algebra and elementwise work and never changes, so
    ``wall_ref`` moves only when lagkit does.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20251)
        a = rng.standard_normal((20000, 3, 3))
        b = rng.standard_normal((20000, 3, 3))
        self.np = np
        self.metric = a @ a.swapaxes(-1, -2) + 3.0 * np.eye(3)
        self.form = b + b.swapaxes(-1, -2)
        self.values = rng.standard_normal(2_000_000)

    def seconds(self) -> float:
        np = self.np
        start = time.perf_counter()
        lower = np.linalg.cholesky(self.metric)
        half = np.linalg.solve(lower, self.form)
        _, vecs = np.linalg.eigh(half @ half.swapaxes(-1, -2))
        np.einsum("mij,mjk->mik", vecs, self.metric)
        np.sqrt(np.abs(self.values * 1.0001 + 0.5))
        return time.perf_counter() - start


class Tally:
    """Operations attempted and failed in one run; each miss is printed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.reports = {}    # inputs key -> report text of the first call

    def miss(self, what: str) -> None:
        self.failed += 1
        print(f"MISS [{self.workload}] {what}", flush=True)


def call(main, argv):
    """One in-process CLI call: (exit status or None, stdout, stderr, wall s)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    status = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = main(argv)
        except Exception:  # a raising call is a failed operation; the run goes on
            traceback.print_exc()
        wall = time.perf_counter() - start
    return status, out.getvalue(), err.getvalue(), wall


def gate(tally: Tally, workload, key, outcome):
    """Check one call's outputs; returns (check margins, grid points) or None."""
    status, out, err, _ = outcome
    tally.attempted += 1
    try:
        report, end = json.JSONDecoder().raw_decode(out)
    except ValueError:
        tally.miss(f"exit status {status}, no report: {err.strip()}")
        return None
    checks = [c for c in report.get("checks", []) if c["status"] != "skip"]
    tally.attempted += len(checks)
    for c in checks:
        if c["status"] != "pass":
            tally.miss(
                f"check {c['name']} {c['status']}: residual {c['residual']!r}, "
                f"tolerance {c['tolerance']!r}"
            )
    problems = []
    if status != 0:
        problems.append(f"exit status {status}")
    if not checks:
        problems.append("no executed checks")
    cls = report.get("classification") or {}
    verdicts = (cls.get("is_isotropic"), cls.get("is_isoparametric"))
    if verdicts != (workload.isotropic, workload.isoparametric):
        problems.append(
            f"isotropic/isoparametric {verdicts}, expected "
            f"{(workload.isotropic, workload.isoparametric)}"
        )
    text = out[:end]
    if tally.reports.setdefault(key, text) != text:
        problems.append("report bytes differ from an earlier call with equal inputs")
    if problems:
        tally.miss("; ".join(problems))
    margins = {c["name"]: c["residual"] / c["tolerance"] for c in checks}
    return margins, int(report["grid"]["points"])


class Runner:
    """Runs the calls of one workload and gates each of them."""

    def __init__(self, name: str, seed: int):
        import lagkit.cli
        from spans import Recorder

        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.tally = Tally(name)
        self.main = lagkit.cli.main
        self.recorder = Recorder()

    def setup_sample(self):
        """Wall time of a fresh interpreter building the inputs, or None."""
        cmd = [sys.executable, str(HERE / "workloads.py"), self.name, str(self.seed)]
        self.tally.attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            self.tally.miss("set-up interpreter timed out")
            return None
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            self.tally.miss(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
            return None
        return elapsed

    def gated_call(self, index: int, main=None):
        """One gated call: (outcome, gate result); equal argv, equal report."""
        argv = self.workload.argv(self.seed, index)
        outcome = call(main or self.main, argv)
        return outcome, gate(self.tally, self.workload, tuple(argv), outcome)

    def traced(self, index: int):
        """One traced call: (wall s, margins, layer metrics) or None."""
        from spans import installed, layer_metrics

        rec = self.recorder
        rec.reset()
        with installed(rec) as missing:
            outcome, gated = self.gated_call(
                index, functools.partial(rec.call, "cli.main", self.main)
            )
        if missing:
            print(f"not traced (absent): {', '.join(missing)}")
        if gated is None:
            return None
        margins, points = gated
        wall = outcome[3]
        metrics, problems = layer_metrics(rec, wall, points)
        self.tally.attempted += 1
        if problems:
            self.tally.miss("trace: " + "; ".join(problems))
        return wall, margins, metrics

    def peak_mb(self):
        """Traced peak allocation of a call on the warm-up's inputs, in MB."""
        argv = self.workload.argv(self.seed, 0)
        gc.collect()
        tracemalloc.start()
        try:
            outcome = call(self.main, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        gate(self.tally, self.workload, tuple(argv), outcome)
        return peak / 1e6


def median_layers(samples: list) -> dict:
    names = samples[0].keys()
    return {
        name: (statistics.median_low(s[name][0] for s in samples), samples[0][name][1])
        for name in names
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, reference: Reference):
    """Measure one workload; returns (tally, {metric: (value, unit)}, notes)."""
    runner = Runner(name, seed)
    tally = runner.tally
    runner.setup_sample()   # untimed: fills the page cache
    warm = runner.traced(0)
    walls, relative, overheads, layers, setup = [], [], [], [], []
    margins = [] if warm is None else [warm[1]]
    start = time.perf_counter()
    last = 0.0
    index = 1
    # Start a step only while it is expected to end in time.  Set-up samples
    # are spread over the window like the calls, so that both see the same
    # machine.
    while index == 1 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        ref = reference.seconds()
        outcome, gated = runner.gated_call(index)
        walls.append(outcome[3])
        relative.append(outcome[3] / ref)
        if gated is not None:
            margins.append(gated[0])
        if trace:
            traced = runner.traced(index)
            if traced is not None:
                overheads.append(traced[0] - outcome[3])
                layers.append(traced[2])
        sample = runner.setup_sample()
        if sample is not None:
            setup.append(sample)
        last = time.perf_counter() - began
        index += 1
    peak = runner.peak_mb()

    if warm is None or not margins or not setup:
        return tally, None, {}
    values = dict(median_layers(layers) if layers else warm[2])
    if overheads:
        # Each traced call follows an untraced one on equal inputs.
        values["trace.overhead_s"] = (statistics.median(overheads), "s")
    # Per check, the median margin over the run's calls (each construct call
    # has its own matrix, so one matrix would make the value noisy); the
    # worst check sets the value.
    checks = {c for m in margins for c in m}
    worst = max(statistics.median(m[c] for m in margins if c in m) for c in checks)
    values.update({
        "wall_ref": (statistics.median(relative), "ratio"),
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_mb": (peak, "MB"),
        "chart_evals_per_point": warm[2]["chart_evals_per_point"],
        "worst_margin": (worst, "ratio"),
        "checks_failed_frac": (tally.failed / tally.attempted, "ratio"),
        "checks_passed_frac": (1.0 - tally.failed / tally.attempted, "ratio"),
    })
    notes = {
        "wall_samples": walls,
        "setup_samples": setup,
        "layers_from": f"low median of {len(layers)} traced calls" if layers
        else "the traced warm-up call",
        "pins": {k: (v, warm[2][k][0]) for k, v in WORKLOADS[name].pins.items()},
    }
    return tally, values, notes


def tail(samples: list) -> str:
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(samples)
    ordered = sorted(samples)
    if n >= 20:
        pct = int(100 * (1 - 10 / n))
        return f"p{pct} {ordered[int(pct / 100 * (n - 1))]:.4f} s"
    return f"max {ordered[-1]:.4f} s (fewer than 20 samples)"


def print_table(name: str, values: dict, notes: dict) -> None:
    print(f"== {name}")
    walls = notes["wall_samples"]
    for metric in sorted(values, key=lambda m: (m not in END_TO_END, m)):
        value, unit = values[metric]
        extra = ""
        if metric == "wall_s":
            extra = f"  [{tail(walls)}; n={len(walls)}]"
        elif metric == "wall_ref":
            extra = "  [call wall time / reference kernel time]"
        elif metric == "setup_s":
            extra = f"  [n={len(notes['setup_samples'])}]"
        print(f"  {metric:36s} {value:>16.6g} {unit}{extra}")
    print(f"  per-layer values: {notes['layers_from']}")
    print(f"  wall samples (s): {' '.join(f'{w:.3f}' for w in walls)}")
    for metric, (pinned, now) in notes["pins"].items():
        verdict = "match" if now == pinned else "DIFFERS"
        print(f"  pinned seed-state {metric}: {pinned}, now {now:g} ({verdict})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lagkit" / "__init__.py").is_file():
        print(f"error: no lagkit sources under {SRC}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: {spec_path}: {exc}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    limit_threads(nproc)
    sys.path.insert(0, str(SRC))
    import lagkit

    if Path(lagkit.__file__).resolve().parent != (SRC / "lagkit").resolve():
        print(f"error: lagkit imported from {lagkit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    print(json.dumps({"env": environment(nproc)}, sort_keys=True))
    for case, reason in LEFT_OUT:
        print(f"left out: {case}: {reason}")

    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    reference = Reference()
    attempted = failed = 0
    metrics = {}
    for name in names:
        tally, values, notes = run_workload(
            name, args.seed, args.seconds, bool(args.trace), reference
        )
        attempted += tally.attempted
        failed += tally.failed
        if values is None:
            print(f"error: {name}: no call produced a report; nothing measured",
                  file=sys.stderr)
            return 1
        print_table(name, values, notes)
        unmeasured = [e["name"] for e in declared if e["name"] not in values]
        if unmeasured:
            print(f"error: {name}: not measured: {', '.join(unmeasured)}", file=sys.stderr)
            return 1
        prefix = f"{name}." if len(names) > 1 else ""
        for entry in declared:
            value, unit = values[entry["name"]]
            if unit != entry["unit"]:
                print(f"error: {entry['name']} is in {unit}, BENCHMARK.json says "
                      f"{entry['unit']}", file=sys.stderr)
                return 1
            metrics[prefix + entry["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
