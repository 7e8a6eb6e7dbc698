"""Exception hierarchy shared across the toolkit.

Two broad families matter to callers: ``ValidationError`` for rejected input
(the CLI maps these to exit code 2) and ``NumericsError`` for runtime
numerical failures (exit code 3).
"""


class FuchsiaError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(FuchsiaError, ValueError):
    """Input violates a documented precondition or file format."""


class GeometryError(ValidationError):
    """Pole configuration too degenerate to route loops through."""


class ParseError(ValidationError):
    """Rational-function expression text could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class NumericsError(FuchsiaError):
    """A numerical routine failed to produce a trustworthy result."""


class EigenConvergenceError(NumericsError):
    """The eigenvalue iteration did not converge."""


class MatrixExpOverflowError(NumericsError):
    """Scaled matrix-exponential computation overflowed."""


class ClusterAmbiguityError(NumericsError):
    """Two eigenvalue clusters sit too close to separate at the given tolerance."""

    def __init__(self, first: complex, second: complex, tol: float):
        super().__init__(
            f"eigenvalue clusters {first} and {second} are closer than "
            f"2*{tol:g} but were not merged; tighten or loosen the tolerance"
        )
        self.pair = (first, second)


class SimilaritySearchError(NumericsError):
    """Jordan structures agree but no well-conditioned conjugator was found."""


class NonFiniteError(NumericsError):
    """A computation produced NaN or infinity."""
