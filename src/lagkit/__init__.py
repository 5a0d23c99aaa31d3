"""Numerical toolkit for the Laguerre geometry of hypersurfaces.

Computes the light-cone lift of a parametrized hypersurface in R^(n+1),
its invariant tensors (by closed form and by structure-equation
projection), classifies isotropic / isoparametric inputs, and integrates
the curvature-line frame system back to an explicit immersion.
"""

from .charts import Chart
from .construction import (
    ConstructedMaps,
    ConstructionConstants,
    b_from_curvatures,
    build_immersion,
    frobenius_report,
    random_orthogonal,
    validate_constants,
)
from .errors import (
    DimensionError,
    ImmersionError,
    InputError,
    LagkitError,
    ParameterError,
)
from .families import (
    DegenerateChart,
    HilfParams,
    degenerate_example,
    hilf_chart,
    laguerre_immersion_tau,
    tau_chart,
    torus_chart,
)
from .invariants import ClassificationResult, analyze, classify_analysis
from .spaces import (
    dot,
    is_laguerre_transform,
    laguerre_signs,
    minkowski_signs,
    p_vector,
)
from .verifier import (
    PropertyReport,
    Tolerances,
    degenerate_model_report,
    run_suite,
)

__version__ = "0.1.0"
