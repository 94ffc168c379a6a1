"""Exception types shared across the package."""

from __future__ import annotations


class LeonardPairsError(Exception):
    """Base class for every error raised deliberately by this package."""


class FieldMismatchError(LeonardPairsError):
    """Two operands live in different fields."""


class FieldConstructionError(LeonardPairsError, ValueError):
    """Field parameters are invalid (composite modulus, bad discriminant)."""


class ParseError(LeonardPairsError, ValueError):
    """A string or JSON payload does not match the documented format."""


class UnsupportedFieldOperationError(LeonardPairsError):
    """The request is outside the documented decidable fragment."""


class PolynomialError(LeonardPairsError, ValueError):
    """Ill-posed polynomial request (e.g. roots of the zero polynomial)."""


class SingularMatrixError(LeonardPairsError):
    """Inversion or conjugation was asked of a non-invertible matrix."""


class InvalidParameterArrayError(LeonardPairsError, ValueError):
    """A construction requires a valid parameter array and was given less."""


class DegenerateSplitError(LeonardPairsError):
    """A system's split or tridiagonal form fails a check of extraction."""


class GeneratorError(LeonardPairsError, ValueError):
    """Algebraic generator parameters violate a documented precondition."""


class LatticeSizeError(GeneratorError):
    """Requested subspace lattice exceeds the documented size guards."""


class InternalCheckError(LeonardPairsError):
    """An internal consistency check failed; this is a bug, not bad input."""
