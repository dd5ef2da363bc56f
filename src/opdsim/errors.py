"""Shared exception types and the number check config fields share."""

import numbers
import sys


class ValidationError(ValueError):
    """Raised when an input file, config or dataset violates the schema or an
    invariant (CLI maps this to exit code 3)."""


def require_number(name: str, value) -> None:
    """Refuse a config value that is not a finite real number: a bool (`true`
    would pass as 1), NaN (it passes `x <= 0` but fails the test below), ±inf,
    which JSON cannot carry, and an int beyond the float range."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and abs(value) <= sys.float_info.max):
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
