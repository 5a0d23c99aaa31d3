"""Exception types shared across the toolkit."""


class LagkitError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(LagkitError):
    """Mismatched vector spaces or incompatible array shapes."""


class ParameterError(LagkitError):
    """Invalid family or construction parameters."""


class MarginError(LagkitError):
    """A parameter point lies outside the chart domain."""


class ImmersionError(LagkitError):
    """Rank-deficient Jacobian or singular first fundamental form."""


class UmbilicError(LagkitError):
    """All principal curvatures coincide; the invariants are undefined."""


class VanishingCurvatureError(LagkitError):
    """A principal curvature is (numerically) zero; radii are undefined."""


class DegeneracyError(LagkitError):
    """A derived quantity lost definiteness (e.g. non-positive metric)."""


class InputError(LagkitError):
    """Unusable input to a grid-level operation (e.g. too few points)."""
