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
    """Lattice basis rows are linearly dependent."""


class StepBoundExceeded(QuadexpError):
    """A rewriting computation hit its step bound before reaching normal form."""


class PoleError(QuadexpError):
    """Evaluation at a declared pole of the coefficient map."""


class ConstraintViolated(UserWarning):
    """Warning category: a surface constraint does not hold for the inputs."""
