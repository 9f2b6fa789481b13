"""Exception hierarchy shared by all solver components."""


class GreedyEigError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(GreedyEigError):
    """Shapes or dimensions of tensor objects do not match."""


class DegenerateIterate(GreedyEigError):
    """An iterate collapsed to (numerically) zero and cannot be normalized."""


class DegenerateDirection(GreedyEigError):
    """A frozen rank-one factor is the zero vector; the ADM sweep must restart."""


class AdmFailure(GreedyEigError):
    """ADM failed even after the configured number of reseeds."""


class KernelFailure(GreedyEigError):
    """A dense eigendecomposition did not converge."""


class IllConditionedGram(GreedyEigError):
    """A matrix required to be SPD failed its Cholesky factorization;
    ``pivot`` is the index of the first pivot that failed."""

    def __init__(self, message, pivot):
        super().__init__(message)
        self.pivot = pivot


class SingularSystem(GreedyEigError):
    """A symmetric linear system is singular to pivot tolerance."""


class DegenerateDenominator(GreedyEigError):
    """The reduced quotient denominator constant is not positive."""


class PoleCollision(GreedyEigError):
    """The secular root coincides with an active pole."""


class NuTooSmall(GreedyEigError):
    """The shifted bilinear form is not positive definite for the given shift."""


class ExplicitStepFailure(GreedyEigError):
    """The explicit correction equation has no usable solution."""


class InvalidSpec(GreedyEigError):
    """A problem specification violates its constraints."""


class TooLargeForOracle(GreedyEigError):
    """Dense assembly was requested above the size guard."""


class ParseError(GreedyEigError):
    """An operator file or configuration could not be parsed."""

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class VersionError(GreedyEigError):
    """An operator file carries an unsupported format version."""
