"""Exception hierarchy for polycond.

Every error raised by the library derives from PolycondError so callers
(including the CLI) can distinguish analysis failures from programming errors.
Construction-time validation errors also subclass ValueError to stay close to
plain-numpy conventions.
"""

from __future__ import annotations

__all__ = [
    "PolycondError",
    "InvalidPolynomialError",
    "InvalidWeightsError",
    "ProblemFormatError",
    "NotAnEigenvalueError",
    "DefectiveEigenvalueError",
    "HypothesisViolationError",
    "DegenerateProblemError",
    "EigensolverError",
    "InvalidTripleError",
    "ContainmentError",
]


class PolycondError(Exception):
    """Base class for all polycond analysis errors."""


class InvalidPolynomialError(PolycondError, ValueError):
    """Coefficient data cannot form a valid matrix polynomial
    (shape mismatch, non-finite entries, singular leading coefficient)."""


class InvalidWeightsError(PolycondError, ValueError):
    """Weight data violates the perturbation-weight contract
    (negative weight, zero constant weight, length mismatch)."""


class ProblemFormatError(PolycondError, ValueError):
    """A problem document failed to parse; message carries the field path."""


class NotAnEigenvalueError(PolycondError):
    """A supplied point is not within tolerance of the computed spectrum, or
    the eigenvalue it snaps to is not simple where a simple one is needed."""


class DefectiveEigenvalueError(PolycondError):
    """y* P'(lam) x is numerically zero: lam behaves as a multiple eigenvalue,
    so simple-eigenvalue formulas do not apply."""


class HypothesisViolationError(PolycondError):
    """A theorem hypothesis needed by the requested computation fails
    (singular derivative, parallel vectors, singular-value gap too small)."""


class DegenerateProblemError(PolycondError):
    """The problem is too small for the requested quantity
    (e.g. a 1x1 degree-1 polynomial has no second eigenvalue)."""


class EigensolverError(PolycondError):
    """The dense eigensolver failed to converge; context in the message."""


class InvalidTripleError(PolycondError, ValueError):
    """Jordan triple data is malformed or fails its structural invariants."""


class ContainmentError(PolycondError):
    """A point lies outside every contour component of the queried level set."""
