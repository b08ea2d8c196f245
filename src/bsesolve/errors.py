"""Exception hierarchy shared across the package, and the integer check.

The CLI maps these onto stable exit codes: ValidationError -> 2,
I/O failures -> 3, NumericalError (and subclasses) -> 4.
"""

import numbers


class BseSolveError(Exception):
    """Base class for all package errors."""


class ValidationError(BseSolveError, ValueError):
    """Invalid argument, shape mismatch, or malformed input data."""


class NumericalError(BseSolveError, RuntimeError):
    """A numerical procedure failed in a way the caller must handle."""


class IndefiniteError(NumericalError):
    """The matrix S*H is not positive definite where definiteness is required."""


class RankDeficiencyError(NumericalError):
    """Input columns are numerically rank deficient on every available path."""


class HermitianRqError(NumericalError):
    """The hermitian-equivalent reduced problem could not be formed.

    Raised when the Cholesky factorization of Q*SHQ fails or Q*SQ is
    numerically singular; callers running in automatic mode switch to the
    non-hermitian backup projection for the current iteration.
    """


def require_integers(owner, *names: str) -> None:
    """Reject a named field of owner that is set (not None) but not an integer."""
    for name in names:
        value = getattr(owner, name)
        if value is not None and not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")
