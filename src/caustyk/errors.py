"""Exception hierarchy shared across the package.

Every failure mode that callers are expected to branch on gets its own class;
the CLI maps them onto exit codes (syntax/usage -> 2, negative verdicts -> 1,
numerical inconsistency -> 3).
"""


class CaustykError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimensionError(CaustykError, ValueError):
    """A dimension argument was zero, negative, or otherwise malformed."""


class HermiticityError(CaustykError, ValueError):
    """A matrix violated the Hermiticity tolerance; ``deviation`` is the
    largest entry of ``mat - mat^dagger`` that was measured."""

    def __init__(self, message: str, deviation: float = 0.0):
        super().__init__(message)
        self.deviation = deviation


class ShapeMismatchError(CaustykError, ValueError):
    """Operands live in different ambient spaces or have inconsistent factors."""


class EmptyDualError(CaustykError):
    """The dual affine system has no solution (1 is not in range).

    Raised when dualizing a subspace through the origin, i.e. a non-flat input.
    """


class InconsistencyError(CaustykError):
    """A numerical invariant that should hold by construction failed.

    Signals a breakdown of the method rather than a negative verdict about the
    input (those get their own error types).
    """


class FlatnessError(InconsistencyError):
    """A state hull has no flat state: its min-norm point is not a positive
    multiple of the identity, as it passes through the origin or its states
    do not share one trace."""


class MorphismError(CaustykError):
    """A candidate map failed the morphism check.

    ``reason`` is ``"hermiticity"`` for a non-Hermitian Choi matrix, ``"cp"``
    for complete-positivity failures and ``"affine"`` for state-set
    containment failures; ``residual`` carries the magnitude.
    """

    def __init__(self, message: str, reason: str, residual: float = 0.0):
        super().__init__(message)
        self.reason = reason
        self.residual = residual


class NotOneWayError(CaustykError):
    """The input violates the one-way (sequential) signalling constraint."""

    def __init__(self, message: str, residual: float = 0.0):
        super().__init__(message)
        self.residual = residual


class NoIsometryError(CaustykError):
    """No isometry relates the two dilations within tolerance."""


class ShadowNotFoundError(CaustykError):
    """The idempotent absorption equations could not be satisfied."""

    def __init__(self, message: str, residuals: dict | None = None):
        super().__init__(message)
        self.residuals = residuals or {}


class TypeSyntaxError(CaustykError, ValueError):
    """Type-expression parse failure with position information.

    ``position`` is the codepoint index, ``byte_offset`` the UTF-8 byte offset
    of the offending character; ``expected`` lists acceptable tokens.
    """

    def __init__(self, message: str, position: int, byte_offset: int,
                 expected: tuple[str, ...] = ()):
        super().__init__(f"{message} at position {position} (byte {byte_offset})"
                         + (f"; expected one of: {', '.join(expected)}" if expected else ""))
        self.position = position
        self.byte_offset = byte_offset
        self.expected = expected


class ElaborationError(CaustykError, ValueError):
    """The type expression parsed but denotes no valid object (e.g. FO(0))."""
