"""Error types shared across the library."""

from __future__ import annotations

from fractions import Fraction
from typing import Optional


class DomainError(ValueError):
    """An input violates a documented mathematical precondition.

    The message names the precondition so callers (and the CLI, which maps
    this to exit code 1) can report something actionable.
    """


def require_int(name: str, value, minimum: Optional[int] = None) -> None:
    """Raise DomainError unless value is an int (bools excluded) that is
    at least ``minimum`` when one is given."""
    if (
        not isinstance(value, int)
        or isinstance(value, bool)
        or (minimum is not None and value < minimum)
    ):
        raise DomainError(
            "%s must be an integer%s"
            % (name, "" if minimum is None else " >= %d" % minimum)
        )


def require_rational(name: str, value) -> None:
    """Raise DomainError unless value is an int (bools excluded) or a
    Fraction. Fraction() would also take a float or a string, so 0.1
    would silently become 3602879701896397/36028797018963968."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise DomainError(
            "%s must be an integer or a Fraction, not %s"
            % (name, type(value).__name__)
        )
