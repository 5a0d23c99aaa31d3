"""Exception types shared across the toolkit."""


class LagkitError(Exception):
    """Base class for all toolkit errors."""


class DimensionError(LagkitError):
    """Mismatched vector spaces or incompatible array shapes."""


class ParameterError(LagkitError):
    """Invalid family or construction parameters."""


class ImmersionError(LagkitError):
    """Rank-deficient Jacobian or singular first fundamental form."""


class InputError(LagkitError):
    """Unusable input to a grid-level operation (e.g. too few points)."""
