"""Workloads of the lagkit benchmark.

Each workload is one `lagkit` CLI call.  ``Workload.argv(seed, call)``
builds its arguments; only ``construct`` uses the seed, which selects the
orthogonal matrix, and every call of a run gets its own matrix so that a
run's residual margins describe the workload rather than one matrix.

Run as a script (``workloads.py NAME SEED``), this module imports the CLI
and builds one workload's inputs, and nothing else: the benchmark times
that in a fresh interpreter as ``setup_s``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class Workload:
    args: tuple
    isotropic: bool          # expected classification verdicts
    isoparametric: bool
    seeded: bool = False     # append --seed (construct only)
    # Seed-state counts from the traced run; printed against each run.
    pins: dict = field(default_factory=dict)

    def argv(self, seed: int, call: int) -> list:
        argv = list(self.args)
        if self.seeded:
            argv += ["--seed", str(seed * 1000 + call)]
        return argv + ["--no-timestamp"]


WORKLOADS = {
    # ROADMAP reference case: n=3, 125 points; every conditional check,
    # metric_geometry twice (D4); the nested outer derivative of N
    # dominates, so it is the deepest use of fd -> frames -> charts.
    "verify-hilf3": Workload(
        args=("verify", "--surface", "hilf", "--a", "1,2,3", "--grid", "5",
              "--half-width", "0.4"),
        isotropic=True, isoparametric=True,
        pins={"chart_evals_per_point": 1142, "invariants.metric_geometry.calls": 2},
    ),
    # n=2, not isotropic, 1,089 points at 352 evaluations each: batch size
    # and per-point kernel cost dominate, not stencil depth.
    "verify-torus-wide": Workload(
        args=("verify", "--surface", "torus", "--params", '{"R": 2, "r_tube": 1}',
              "--grid", "33", "--half-width", "0.9"),
        isotropic=False, isoparametric=True,
        pins={"chart_evals_per_point": 352},
    ),
    # Integration path: build_immersion, frobenius_report, classify; no
    # run_suite, no regularity pass, no metric_geometry.
    "construct-hilf3": Workload(
        args=("construct", "--b-from-a", "1,2,3", "--grid", "5", "--half-width", "0.5"),
        isotropic=True, isoparametric=True, seeded=True,
    ),
}

# Cases left out because the suite does not pass on them at the seed
# state; timing a wrong answer measures nothing.  Add each as a workload
# once the suite passes on it.
LEFT_OUT = (
    ("repeated curvatures (ROADMAP D1)",
     "hilf a=(1,2) with multiplicities (2,1) or (1,2): covariant_b_contraction, "
     "covariant_b_square and parallel_b_iff_lambda_zero fail"),
    ("grids that touch the singular set (ROADMAP D2)",
     "hilf a=(1,2,3) at centre (0.5,0.5,0.5), half-width 0.3, and hilf a=(1,2) "
     "on 7^2 at half-width 1.5: run_suite raises instead of reporting per-point errors"),
    ("black-box charts with finite-difference jets",
     "run_suite fails at least 5 checks on every such chart tried: the fd-jet "
     "torus misses covariant_b_contraction by ~1.5e8x its tolerance and "
     "structure_equation by ~1e3x; hilf a=(1,2) rebuilt from its evaluator "
     "alone fails the same checks (5 to 8 in all) at FdConfig steps 1e-4, "
     "1e-3 and 3e-3; tau_chart fails the same 5"),
)


if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    sys.path.insert(0, str(SRC))
    from lagkit.cli import build_parser

    build_parser().parse_args(WORKLOADS[name].argv(seed, 0))
