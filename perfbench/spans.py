"""Span recorder for the traced benchmark run.

``installed(recorder)`` replaces the public functions of each lagkit layer
with timing wrappers, in every lagkit module that holds a reference to
them (``lift_arrays`` is imported by name into ``invariants``,
``construction`` and ``verifier``, for example), and restores the
originals on exit.  Chart points are counted by wrapping the ``CATALOG``
factories and the constructed chart's callables.  Nothing under ``src/``
changes.

Each span records its name, start, end and parent; a span's self time is
its duration minus that of its children.  ``layer_metrics`` turns the
spans of one traced CLI call into the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Functions wrapped in their home module and in every lagkit module that
# imported them by name.  The span name is "<module>.<function>".
TARGETS = (
    ("charts", "jet_arrays"),
    ("charts", "forms_arrays"),
    ("charts", "principal_arrays"),
    ("frames", "lift_arrays"),
    ("fields", "christoffels"),
    ("fields", "laplacian"),
    ("fields", "lowered_riemann"),
    ("fields", "frame_riemann"),
    ("fields", "frame_connection"),
    ("invariants", "analyze"),
    ("invariants", "classify"),
    ("invariants", "metric_geometry"),
    ("construction", "build_immersion"),
    ("construction", "frobenius_report"),
    ("verifier", "run_suite"),
    ("verifier", "two_curvature_check"),
    ("fd", "grad_field"),
    ("fd", "hess_field"),
)

# Spans whose second positional argument (``U``) is a batch of points.
POINT_SPANS = ("frames.lift_arrays", "charts.jet_arrays")


def _rows(points) -> int:
    return int(np.atleast_2d(np.asarray(points)).shape[0])


class Recorder:
    """Spans and counters of the traced calls, kept in memory."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans = []     # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.jetless_chart = False
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around every call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in POINT_SPANS:
                U = args[1] if len(args) > 1 else kwargs["U"]
                self.counts[name + ".points"] += _rows(U)
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def wrap_stencil(self, name, fn):
        """An ``fd`` field helper that also counts the stencil points."""

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            def counted(points):
                self.counts[name + ".stencil_points"] += _rows(points)
                return f(points)

            return self.call(name, fn, counted, *args, **kwargs)

        return wrapper

    def chart(self, chart):
        """A copy of ``chart`` whose callables count points and record spans.

        A chart point is one evaluation of the exact jet, or of the
        evaluator on a chart without one (finite-difference jets).
        """
        from lagkit.charts import Chart

        if not isinstance(chart, Chart):
            return chart
        if chart.jet is None:
            self.jetless_chart = True
        point_source = "evaluator" if chart.jet is None else "jet"
        replaced = {}
        for attr in ("evaluator", "jet", "normal"):
            fn = getattr(chart, attr)
            if fn is None:
                continue
            replaced[attr] = self._chart_callable(attr, fn, attr == point_source)
        return dataclasses.replace(chart, **replaced)

    def _chart_callable(self, attr, fn, counts_points):
        name = "families.chart." + attr

        def wrapper(U, *args, **kwargs):
            if counts_points:
                self.counts["families.chart_points"] += _rows(U)
            return self.call(name, fn, U, *args, **kwargs)

        return wrapper


def _lagkit_modules():
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "lagkit" or name.startswith("lagkit."))
    ]


@contextmanager
def installed(rec: Recorder):
    """Patch the wrappers into every lagkit namespace; yields missing targets."""
    import lagkit.cli  # noqa: F401  (every module that imports a target)
    from lagkit import families

    modules = _lagkit_modules()
    patches = []    # (namespace, key, original); dicts are patched by key
    missing = []
    try:
        for home, fname in TARGETS:
            home_mod = sys.modules.get("lagkit." + home)
            original = getattr(home_mod, fname, None)
            if original is None:
                missing.append(f"{home}.{fname}")
                continue
            name = f"{home}.{fname}"
            if home == "fd":
                wrapper = rec.wrap_stencil(name, original)
            elif name == "construction.build_immersion":
                wrapper = _instrumented_build(rec, original)
            else:
                wrapper = rec.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        catalog = getattr(families, "CATALOG", {})
        for kind, factory in list(catalog.items()):
            patches.append((catalog, kind, factory))
            catalog[kind] = _instrumented_factory(rec, factory)
        yield missing
    finally:
        for namespace, key, original in reversed(patches):
            if isinstance(namespace, dict):
                namespace[key] = original
            else:
                setattr(namespace, key, original)


def _instrumented_factory(rec, factory):
    @functools.wraps(factory)
    def wrapper(*args, **kwargs):
        return rec.chart(factory(*args, **kwargs))

    return wrapper


def _instrumented_build(rec, build):
    name = "construction.build_immersion"

    @functools.wraps(build)
    def wrapper(*args, **kwargs):
        maps = rec.call(name, build, *args, **kwargs)
        return dataclasses.replace(maps, chart=rec.chart(maps.chart))

    return wrapper


def _group(name: str) -> str:
    if name.startswith("families.chart."):
        return "families.chart"
    if name.startswith("fields."):
        return "fields"
    if name.startswith("fd."):
        return "fd"
    return name


def layer_metrics(rec: Recorder, wall: float, grid_points: int) -> tuple:
    """Per-layer metrics of one traced call: ({name: (value, unit)}, problems).

    ``wall`` is the traced call's wall time measured around the root
    ``cli.main`` span; what lies outside that span is the remainder.
    ``problems`` lists every consistency check the spans fail: the self
    times plus the remainder must give ``wall``, and every chart point
    must pass through ``jet_arrays``.
    """
    spans = rec.spans
    count = len(spans)
    dur = [end - start for _, start, end, _ in spans]
    child_time = [0.0] * count
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]
    self_time = [dur[i] - child_time[i] for i in range(count)]
    groups = [_group(span[0]) for span in spans]

    def outermost(i):
        parent = spans[i][3]
        while parent >= 0:
            if groups[parent] == groups[i]:
                return False
            parent = spans[parent][3]
        return True

    total = Counter()     # inclusive time, nested spans of a group counted once
    self_s = Counter()
    calls = Counter()
    for i in range(count):
        self_s[groups[i]] += self_time[i]
        calls[groups[i]] += 1
        if outermost(i):
            total[groups[i]] += dur[i]

    problems = []
    roots = [i for i in range(count) if spans[i][3] < 0]
    if len(roots) != 1 or spans[roots[0]][0] != "cli.main":
        problems.append(f"expected one root span cli.main, found {len(roots)}")
    remainder = wall - sum(dur[i] for i in roots)
    accounted = sum(self_time) + remainder
    if abs(accounted - wall) > 1e-6 * max(wall, 1.0) or min(self_time, default=0.0) < -1e-9:
        problems.append(
            f"self times plus remainder give {accounted:.9f} s, traced wall {wall:.9f} s"
        )
    if remainder < 0.0 or remainder > 0.01 * wall:
        problems.append(f"untraced remainder {remainder:.6f} s outside [0, 1% of wall]")

    counts = rec.counts
    chart_points = counts["families.chart_points"]
    jet_points = counts["charts.jet_arrays.points"]
    if not rec.jetless_chart and chart_points != jet_points:
        problems.append(
            f"families.chart_points {chart_points} != charts.jet_arrays points {jet_points}"
        )
    lift_points = counts["frames.lift_arrays.points"]
    lift_s = total["frames.lift_arrays"]

    metrics = {
        "frames.lift_points": (lift_points, "count"),
        "frames.lift_arrays.self_s": (self_s["frames.lift_arrays"], "s"),
        "frames.lift_us_per_point": (1e6 * lift_s / lift_points if lift_points else 0.0, "us"),
        "fd.grad_field.stencil_points": (counts["fd.grad_field.stencil_points"], "count"),
        "fd.hess_field.stencil_points": (counts["fd.hess_field.stencil_points"], "count"),
        "fd.self_s": (self_s["fd"], "s"),
        "charts.jet_arrays.self_s": (self_s["charts.jet_arrays"], "s"),
        "charts.jet_arrays.calls": (calls["charts.jet_arrays"], "count"),
        "charts.jet_arrays.points": (jet_points, "count"),
        "charts.principal_arrays.s": (total["charts.principal_arrays"], "s"),
        "charts.forms_arrays.s": (total["charts.forms_arrays"], "s"),
        "families.chart_s": (total["families.chart"], "s"),
        "families.chart_points": (chart_points, "count"),
        "invariants.analyze.s": (total["invariants.analyze"], "s"),
        "invariants.analyze.self_s": (self_s["invariants.analyze"], "s"),
        "invariants.classify.s": (total["invariants.classify"], "s"),
        "invariants.metric_geometry.calls": (calls["invariants.metric_geometry"], "count"),
        "invariants.metric_geometry.s": (total["invariants.metric_geometry"], "s"),
        "fields.s": (total["fields"], "s"),
        "construction.build_immersion.s": (total["construction.build_immersion"], "s"),
        "construction.frobenius_report.s": (total["construction.frobenius_report"], "s"),
        "verifier.run_suite.self_s": (self_s["verifier.run_suite"], "s"),
        "verifier.two_curvature_check.s": (total["verifier.two_curvature_check"], "s"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "trace.remainder_s": (remainder, "s"),
        "chart_evals_per_point": (chart_points / grid_points, "count"),
    }
    return metrics, problems
