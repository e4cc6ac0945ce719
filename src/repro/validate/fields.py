"""Field-level validators for config dataclasses.

Every helper takes the *owner* (dataclass instance or its name), the
field name, and the value, and raises :class:`ConfigError` naming all
three plus the violated constraint.  The helpers treat ``NaN`` as
invalid everywhere (``NaN`` compares false against every bound, so a
naive ``value <= 0`` check silently accepts it) and reject booleans and
non-numeric types up front so a stray ``None`` or string fails at the
boundary instead of exploding in arithmetic later.

This module deliberately imports nothing but :mod:`repro.validate.
errors`, so :mod:`repro.config` can use it without import cycles.
"""

from __future__ import annotations

import math

from repro.validate.errors import ConfigError


def _owner_name(owner) -> str:
    if isinstance(owner, str):
        return owner
    return type(owner).__name__


def _as_number(owner, field: str, value, constraint: str) -> float:
    """Reject non-numeric values (including bool) with a ConfigError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(_owner_name(owner), field, value, constraint)
    return value


def require_positive(owner, field: str, value) -> None:
    """Reject values that are not finite and strictly positive."""
    constraint = "must be a positive finite number"
    number = _as_number(owner, field, value, constraint)
    if not math.isfinite(number) or number <= 0:
        raise ConfigError(_owner_name(owner), field, value, constraint)


def require_non_negative(owner, field: str, value) -> None:
    """Reject values that are not finite and >= 0 (NaN included)."""
    constraint = "must be a non-negative finite number"
    number = _as_number(owner, field, value, constraint)
    if not math.isfinite(number) or number < 0:
        raise ConfigError(_owner_name(owner), field, value, constraint)


def require_positive_int(owner, field: str, value) -> None:
    """Reject values that are not integers >= 1."""
    constraint = "must be a positive integer"
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value <= 0
    ):
        raise ConfigError(_owner_name(owner), field, value, constraint)


def require_power_of_two(owner, field: str, value) -> None:
    """Reject values that are not integer powers of two."""
    constraint = "must be a power-of-two integer"
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or value <= 0
        or value & (value - 1)
    ):
        raise ConfigError(_owner_name(owner), field, value, constraint)


def require_fraction(owner, field: str, value) -> None:
    """Reject values outside [0, 1] (NaN included)."""
    constraint = "must be a fraction in [0, 1]"
    number = _as_number(owner, field, value, constraint)
    if not math.isfinite(number) or not 0.0 <= number <= 1.0:
        raise ConfigError(_owner_name(owner), field, value, constraint)


def require_at_least(owner, field: str, value, floor, floor_name: str) -> None:
    """Reject ``value < floor`` (cross-field constraints)."""
    constraint = "must be >= %s (%r)" % (floor_name, floor)
    number = _as_number(owner, field, value, constraint)
    if not math.isfinite(number) or number < floor:
        raise ConfigError(_owner_name(owner), field, value, constraint)
