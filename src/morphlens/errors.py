"""Exception hierarchy shared by every morphlens module."""


class MorphLensError(Exception):
    """Base class for all library errors; the CLI reports these as `error: ...`."""


class ShapeMismatchError(MorphLensError):
    """Operands with incompatible dimensions."""


class NotScalarError(MorphLensError):
    """backward() was handed a non-scalar tensor."""


class PlanConstraintError(MorphLensError):
    """Scaling coefficients violate the compound constraint or bounds."""


class ResolutionMismatchError(MorphLensError):
    """Image or tensor spatial size differs from what the model expects."""


class ArchitectureError(MorphLensError):
    """Model structure does not support the requested operation."""


class LayerIndexError(MorphLensError):
    """Activation layer index outside the valid range."""


class ExplainError(MorphLensError):
    """Invalid input to a heatmap operation, or a violated map/score identity."""


class FormatError(MorphLensError):
    """Malformed file content (image codecs, heatmap files, checkpoints, config), or an input path that is not a regular file."""


class ImageError(MorphLensError):
    """Invalid pixel data or incompatible images."""


class DataError(MorphLensError):
    """Invalid corpus request, sample, or dataset."""


class MetricsError(MorphLensError):
    """Invalid predictions, labels, or confusion counts."""


class TrainingError(MorphLensError):
    """Training diverged: a step's loss or a trained parameter is not finite."""


class CliError(MorphLensError):
    """Command-level failure: missing inputs, bad arguments."""
