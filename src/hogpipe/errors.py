"""Exception types shared across the pipeline stages."""


class FormatError(ValueError):
    """Malformed file or header contents, or a payload that disagrees with its header."""


class LayoutError(ValueError):
    """Frame layout does not match what the operation expects."""


class DimensionError(ValueError):
    """Unusable geometry: a frame too small or not a multiple of the cell
    size, or feature tensors whose shapes disagree."""


class CountMismatch(ValueError):
    """Model weight count disagrees with the declared or required count."""


class TapNotEnabled(LookupError):
    """A capture stream was requested that the run was not configured to record."""


class OutOfBoundsError(IndexError):
    """Window placement falls outside the feature grid."""
