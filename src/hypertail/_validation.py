"""Small argument-checking helpers used by every module."""

from __future__ import annotations

import math
import operator

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
    try:
        value = float(value)
    except OverflowError:  # a rational beyond the float range
        value = math.inf if value > 0 else -math.inf
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None
    if math.isnan(value) or math.isinf(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def check_positive(value, name: str) -> float:
    value = check_real(value, name)
    if not value > 0:
        raise DomainError(f"{name} must be positive, got {value}")
    return value


def check_probability(value, name: str) -> float:
    """Check a strictly interior probability, 0 < value < 1."""
    value = check_real(value, name)
    if not 0 < value < 1:
        raise DomainError(f"{name} must lie strictly between 0 and 1, got {value}")
    return value
