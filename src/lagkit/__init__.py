"""Numerical toolkit for the Laguerre geometry of hypersurfaces.

Computes the light-cone lift of a parametrized hypersurface in R^(n+1),
its invariant tensors (by closed form and by structure-equation
projection), classifies isotropic / isoparametric inputs, and integrates
the curvature-line frame system back to an explicit immersion.
"""

from .charts import Chart, FdConfig, curvature_line_check
from .construction import (
    ConstructedMaps,
    ConstructionConstants,
    b_from_curvatures,
    build_immersion,
    build_normal_map,
    build_position,
    frobenius_report,
    random_orthogonal,
    validate_constants,
)
from .errors import (
    DegeneracyError,
    DimensionError,
    ImmersionError,
    InputError,
    LagkitError,
    MarginError,
    ParameterError,
    UmbilicError,
    VanishingCurvatureError,
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
from .invariants import (
    ClassificationResult,
    FieldSteps,
    classify,
    metric_geometry,
)
from .spaces import (
    SignatureSpace,
    SpaceVector,
    apply_transform,
    inner_product,
    is_laguerre_transform,
    is_lightlike,
    laguerre_space,
    minkowski_space,
    nu_vector,
    p_vector,
)
from .verifier import (
    PropertyReport,
    Tolerances,
    degenerate_model_report,
    run_suite,
    two_curvature_check,
)

__version__ = "0.1.0"
