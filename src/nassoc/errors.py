"""Exception types shared across the package."""


class NassocError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(NassocError):
    """Malformed input text; carries a character position when known."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnbalancedParens(ParseError):
    pass


class NotHomogeneous(NassocError):
    """Identity is not homogeneous in total degree."""


class IndexOutOfRange(NassocError):
    """A permutation or variable index falls outside its declared range."""


class PoleAtZero(NassocError):
    """A rational function of t has a pole at t = 0."""


class TruncationMismatch(NassocError):
    """Series operands are truncated at different orders."""


class DegreeTooLarge(NassocError):
    """A request refused for its size before any work: a degree above the
    cap, a build larger than this machine's memory, or more word
    evaluations, polarized words or basis labels than their limits."""


class NotMultilinear(NassocError):
    """Expression or identity is not multilinear where multilinearity is required."""


class NotQuadratic(NassocError):
    """Identity system is not binary quadratic (relations concentrated in degree 3)."""


class ParameterClash(NassocError):
    """Generated coordinate names collide with declared algebra parameters."""


class ParametricNotSupported(NassocError):
    """Operation needs the algebra's parameters specialized to rationals first."""


class NotIdempotent(NassocError):
    """An element passed as an idempotent does not satisfy e*e = e."""


class NonSplitOperator(NassocError):
    """Multiplication operator has spectrum outside {0, 1/2, 1} or is deficient."""


class VerificationFailed(NassocError):
    """A construction's mandatory post-verification could not be completed."""


class SingularForAllT(NassocError):
    """Parametrized basis matrix has identically vanishing determinant."""


class ShapeMismatch(NassocError):
    """Algebra does not have the structural shape required by the invariant."""
