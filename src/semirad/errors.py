"""Exception types shared across the package.

Validation errors describe inputs that violate a documented precondition
(bad shapes, non-PSD weights, operators outside the admissible class).
``NumericalFailure`` is reserved for internal breakdowns.
The CLI maps ``ValidationError`` to exit code 2 and ``NumericalFailure``
to exit code 1.
"""


class ValidationError(Exception):
    """Input violates a documented precondition."""


class InvalidMatrix(ValidationError):
    """Not a usable dense complex matrix (wrong shape or non-finite entries)."""


class NotSquare(ValidationError):
    """Operation requires a square matrix."""


class NotHermitian(ValidationError):
    """Hermitian asymmetry exceeds the configured tolerance."""


class NotPSD(ValidationError):
    """Matrix has a genuinely negative eigenvalue."""


class DimensionMismatch(ValidationError):
    """Operands have incompatible dimensions."""


class NotAAdjointable(ValidationError):
    """Operator admits no adjoint with respect to the weight: range(T*A) is
    not contained in range(A), so the weighted seminorm quantities are
    unbounded."""


class NotStrictlyPositive(ValidationError):
    """The weight operator is only positive semidefinite where strict
    positivity is required."""


class ContextMismatch(ValidationError):
    """Operators built against different weight contexts were combined."""


class TOutOfRange(ValidationError):
    """Interpolation parameter t lies outside [0, 1]."""


class DegreeZero(ValidationError):
    """Polynomial operations require degree >= 1."""


class WeightDimensionMismatch(ValidationError):
    """Weight vector length differs from the polynomial degree."""


class NonPositiveWeight(ValidationError):
    """Weight vector entries must be strictly positive."""


class NumericalFailure(Exception):
    """An internal numerical routine failed its contract: a LAPACK call did
    not converge, or a result failed its residual or backward-error gate."""
