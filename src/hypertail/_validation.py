"""Small argument-checking helpers used by every module; `check_positive`
is the one reader of a positive real argument, a deviation or half-width."""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from numbers import Rational

from .errors import DomainError


def as_int(value, name: str) -> int:
    """Coerce an int-like value (bool excluded) or raise DomainError."""
    if isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def check_range(value, name: str, low, high=None) -> int:
    """Coerce an integer with low <= value, and value <= high unless high
    is None; the message names the violated constraint."""
    value = as_int(value, name)
    if high is None:
        if value < low:
            raise DomainError(f"{name} must satisfy {name} >= {low}, got {value}")
    elif not low <= value <= high:
        raise DomainError(f"{name} must satisfy {low} <= {name} <= {high}, got {value}")
    return value


def check_real(value, name: str) -> float:
    """The finite float of a real value.  A str, bytes or bool is not
    taken as a number, though float() would read one."""
    if type(value) is not float and isinstance(value, (str, bytes, bool)):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # a rational beyond the float range
        value = math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def check_positive(value, name: str) -> int | Fraction | float:
    """Check value > 0 and return it: an int or Fraction as given, so it
    stays exact, and any other real as its float.  Rounding keeps the
    sign, so only a rational that underflows to 0.0, which is rejected,
    needs its exact value."""
    real = check_real(value, name)
    if not real > 0:
        if isinstance(value, Rational) and value > 0:
            raise DomainError(f"{name} is positive but underflows to 0.0 as a float")
        raise DomainError(f"{name} must be positive, got {real}")
    if type(value) is float or not isinstance(value, (int, Fraction)):
        return real
    return value


def check_probability(value, name: str) -> float:
    """Check a strictly interior probability, 0 < value < 1, and return
    its float; a rational inside that rounds onto 0 or 1 is named so."""
    real = check_real(value, name)
    if not 0 < real < 1:
        if isinstance(value, Rational) and 0 < value < 1:
            rounded = "underflows to 0.0" if real == 0 else "rounds to 1.0"
            raise DomainError(f"{name} lies strictly between 0 and 1 but {rounded} as a float")
        raise DomainError(f"{name} must lie strictly between 0 and 1, got {real}")
    return real
