"""Exception hierarchy shared by all modules."""


class QuadexpError(Exception):
    """Base class for all library errors."""


class DomainError(QuadexpError):
    """Argument outside the mathematical domain of the operation."""


class InputRational(QuadexpError):
    """A quadratic irrational was required but the value is rational."""


class NotSquareFree(QuadexpError):
    """The discriminant parameter d must be square-free."""


class BoundExceeded(QuadexpError):
    """An enumeration bound (discriminant size, etc.) was exceeded."""


class NoMatchWithinBound(QuadexpError):
    """No conductor with matching class number inside the search range.

    It carries only its message: a caller that goes on asks ``class_group``,
    which still holds the given order's summary, so none is enumerated twice.
    """


class InsufficientPrecision(QuadexpError):
    """Too little precision to certify a result: the working precision of a
    class-polynomial computation (modular layer) or the trusted precision of
    an input value (recognition layer)."""


class DegenerateBasis(QuadexpError):
    """A relation search's lattice basis is unusable, for one of three causes:
    the exact kernel, run on a rung after a float breakdown, found its rows
    linearly dependent; the top rung's rows failed ``recognition._certified``
    (not C [I | X_s], or det(C C^T) is not 1: dependent rows give 0); or a
    warm start's coefficient basis is not n x n."""


class StepBoundExceeded(QuadexpError):
    """A rewriting computation hit its step bound before reaching normal form."""


class WorkerLost(QuadexpError):
    """A forked process running some of a case's J-value tasks ended
    without reporting their results (killed, out of memory, ``os._exit``)."""


class PoleError(QuadexpError):
    """Evaluation at a declared pole of the coefficient map."""


class ConstraintViolated(UserWarning):
    """Warning category: a surface constraint does not hold for the inputs."""
