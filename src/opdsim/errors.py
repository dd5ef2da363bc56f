"""Shared exception types and the number check config fields share."""

import numbers


class ValidationError(ValueError):
    """Raised when an input file, config or dataset violates the schema or an
    invariant (CLI maps this to exit code 3)."""


def require_number(name: str, value) -> None:
    """Refuse a config value that is not a real number.  Booleans are refused
    (`true` would pass as 1), and so is NaN, which a range check written as
    `x <= 0` lets through."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value != value:
        raise ValidationError(f"{name} must be a number, got {value!r}")
