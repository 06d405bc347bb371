"""Exception types shared across the package."""

from __future__ import annotations


class BratteliError(Exception):
    """Base class for all package-specific errors."""


class ParseError(BratteliError):
    """Malformed document text; carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DimensionMismatch(BratteliError):
    pass


class CapExceeded(BratteliError):
    """An enumeration or expansion would exceed its size cap."""

    def __init__(self, message, required=None, cap=None):
        super().__init__(message)
        self.required = required
        self.cap = cap


class ZeroBlockError(BratteliError):
    """Operation requires a non-zero irreducible block."""


class AmbiguousComparison(BratteliError):
    """An approximate value is within ``spectral.DEFAULT_GAP`` (1e-9) of the
    value it is compared with; refusing to guess an ordering."""


class NotDistinguishedError(BratteliError):
    pass


class NotAperiodicError(BratteliError):
    def __init__(self, message, witness_class=None):
        super().__init__(message)
        self.witness_class = witness_class


class PrimitivityError(BratteliError):
    """Diagram must first be telescoped so that every non-zero diagonal
    block is primitive (or strictly positive, where required)."""

    def __init__(self, message, power=None):
        super().__init__(message)
        self.power = power


class NotInDomainError(BratteliError):
    """Vector off the invariant-measure simplex, or a reducible block."""


class EndpointMismatch(BratteliError):
    pass


class ZeroMeasureCylinder(BratteliError):
    pass


class NotGrowingError(BratteliError):
    """Substitution has a letter with bounded iterates."""

    def __init__(self, message, letter=None):
        super().__init__(message)
        self.letter = letter


class SizeRefused(BratteliError):
    """Exact feasibility oracle refuses inputs beyond its size bounds."""
