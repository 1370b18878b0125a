"""Exception types shared across the pipeline stages."""


class FormatError(ValueError):
    """Malformed file or header contents."""


class LayoutError(ValueError):
    """Frame layout does not match what the operation expects."""


class DimensionError(ValueError):
    """Frame geometry is unusable (too small, not a multiple of the cell size, ...)."""


class FormatMismatch(ValueError):
    """Data disagrees with the format it is written in (payload vs header)."""


class ShapeMismatch(ValueError):
    """Two feature tensors that should be comparable have different geometry."""


class CountMismatch(ValueError):
    """Model weight count disagrees with the declared or required count."""


class TapNotEnabled(LookupError):
    """A capture stream was requested that the run was not configured to record."""


class OutOfBoundsError(IndexError):
    """Window placement falls outside the feature grid."""
