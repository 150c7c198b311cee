"""Exceptions, one class per way ``cli.main`` reports a failure.

``QsgError`` is any input or precondition error (a shape, valence or
flavor mismatch, a non-finite coefficient, a missing model field or option,
a failed generator or synthesis set-up): exit 2, ``qsg: <message>``.
``ModelFileError`` is a schema violation in a model file (exit 2, ``qsg:
model file error: <message>``) and ``DegeneracyError`` a numerically
singular bilinear form (exit 3).
"""


class QsgError(Exception):
    """An input the package cannot work with; the message says which."""


class DegeneracyError(QsgError):
    """A bilinear form is numerically singular at a sample point."""

    def __init__(self, message, point=None, det=None):
        super().__init__(message)
        self.point = None if point is None else tuple(float(x) for x in point)
        self.det = None if det is None else float(det)


class ModelFileError(QsgError):
    """Schema violation in a model file; carries the offending field path."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path
