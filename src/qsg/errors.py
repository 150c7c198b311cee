"""Exception taxonomy shared across the package."""


class QsgError(Exception):
    """Base class for all package errors."""


class ShapeError(QsgError):
    """Valence / dimension mismatch between tensor operands."""


class EvaluationError(QsgError):
    """Non-finite data encountered while evaluating a field."""


class UnsupportedValenceError(QsgError):
    """Operation not defined for the tensor's valence."""


class PreconditionError(QsgError):
    """A structural precondition (symmetry, purity, flavor) is violated."""


class DegeneracyError(QsgError):
    """A bilinear form is numerically singular at a sample point."""

    def __init__(self, message, point=None, det=None):
        super().__init__(message)
        self.point = None if point is None else tuple(float(x) for x in point)
        self.det = None if det is None else float(det)


class ConfigError(QsgError):
    """A required model field or option is missing or malformed."""


class GenerationError(QsgError):
    """A randomized constructor failed to produce a valid structure."""


class SynthesisError(QsgError):
    """Constraint synthesis could not be set up (not a residual failure)."""


class ModelFileError(QsgError):
    """Schema violation in a model file; carries the offending field path."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
