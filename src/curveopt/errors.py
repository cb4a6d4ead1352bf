"""Exception types shared across the library, and `as_integer`, the one
check of an integer argument (a dimension, `M`, `max_iters` or a seed)."""

import operator


class CurveOptError(Exception):
    """Base class for all library errors."""


class DomainError(CurveOptError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ContractError(CurveOptError, ValueError):
    """A documented precondition was violated by the caller."""


class EvaluationError(CurveOptError):
    """An objective evaluation produced a non-finite value."""


class ProjectionError(CurveOptError):
    """A projection routine failed to converge to its tolerance."""


class SearchFailureError(CurveOptError):
    """A backtracking search exhausted its iteration budget.

    Carries diagnostic payload: the last trial value and which condition
    failed there.
    """

    def __init__(self, message, last_trial=None, failed_condition=None):
        super().__init__(message)
        self.last_trial = last_trial
        self.failed_condition = failed_condition


class PlanError(CurveOptError, ValueError):
    """A benchmark plan references unknown names or is malformed."""


class EmptyProfileError(CurveOptError, ValueError):
    """No instance in the record set was solved by any solver."""


def as_integer(value, name: str, least: int = 0) -> int:
    """`operator.index(value)`, a Python int; ValueError unless that is at
    least `least` (0 or 1).  A bool is no count, and a numpy integer passes."""
    try:
        number = operator.index(value)
    except TypeError:
        number = least - 1
    if number < least or isinstance(value, bool):
        kind = "positive" if least == 1 else "nonnegative"
        raise ValueError(f"{name} must be a {kind} integer, not {value!r}")
    return number
