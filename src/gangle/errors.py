"""Exception hierarchy shared by all gangle modules."""


class GAngleError(Exception):
    """Base class for every error raised by this package."""


class BackendError(GAngleError):
    """Exact and float scalars were mixed, or an exact computation would
    produce an irrational value.  The message says which mode to use instead."""


class ZeroVectorError(GAngleError):
    """An operation that needs a nonzero vector received the zero vector."""


class DegenerateSubspaceError(GAngleError):
    """The Gram determinant of the spanning set is zero (or numerically
    indistinguishable from zero), so projections and angles are undefined."""


class DependenceError(GAngleError):
    """A vector turned out to lie in the span of its predecessors during
    orthonormalization."""


class EstimationFailureError(GAngleError):
    """A difference-quotient limit did not converge.  Carries the last two
    estimates so the caller can inspect the tail of the sequence."""

    def __init__(self, message, last_two=None):
        super().__init__(message)
        self.last_two = last_two


class NumericalRangeError(GAngleError):
    """A float quantity left the float range: a norm or a value of g
    overflowed, or the norm of a nonzero vector underflowed to 0.  Exact
    mode has no such limit."""


class ConsistencyError(GAngleError):
    """An internal quantity violated a bound it should satisfy by more than
    round-off slack.  Raised instead of silently clamping."""


class ProblemFileError(GAngleError):
    """A problem file could not be parsed or referenced undefined names."""
