"""Validation and strict-invariant layer.

Two complementary defenses keep garbage inputs from silently corrupting
reproduction numbers:

* **Boundary validation** — every config dataclass validates its fields
  in ``__post_init__`` using :mod:`repro.validate.fields` and raises
  :class:`ConfigError` (a ``ValueError``) naming the type, field, value,
  and violated constraint.  Degenerate configs like
  ``CacheConfig(size_bytes=0)`` die at construction, not deep inside
  set-index arithmetic.
* **Strict runtime invariants** — opt-in conservation checks
  (``hits + misses == accesses``, energy components finite and
  non-negative, MSHR occupancy bounds, trace line-run structure) armed
  by ``strict=True`` arguments, :func:`strict_mode`, or the
  ``REPRO_STRICT`` environment variable, publishing
  ``validate.<name>.checks`` / ``validate.<name>.violations`` counters
  through the observability registry and raising
  :class:`InvariantError` on violation.

The fuzz harness in ``tests/validate`` pins the exception contract:
nothing fed to the byte-level decoders or the config space may escape
as anything but :class:`ConfigError`/``ValueError``.
"""

from repro._lazy import lazy_exports

#: Public name table: defining module -> the names it exports.
_EXPORTS = {
    ".errors": ("ConfigError", "InvariantError"),
    ".fields": (
        "require_at_least",
        "require_fraction",
        "require_non_negative",
        "require_positive",
        "require_positive_int",
        "require_power_of_two",
    ),
    ".strict": (
        "invariant",
        "resolve_strict",
        "set_strict",
        "strict_enabled",
        "strict_mode",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
