"""Strict-mode state and runtime invariant checks.

Strict mode is the opt-in half of the validation layer: construction-
time :class:`~repro.validate.errors.ConfigError` checks always run, but
conservation invariants over *runtime* state (cache accounting, energy
breakdowns, MSHR occupancy, trace line-run structure) cost cycles on
hot paths, so they only run when one of three switches is on:

* a ``strict=True`` argument at a call site that supports it
  (``replay_trace(trace, strict=True)``);
* the :func:`strict_mode` context manager (used by the CLI's
  ``--strict`` flag);
* the ``REPRO_STRICT`` environment variable (used by CI to run the
  whole tier-1 suite with invariants armed).

Every :func:`invariant` evaluation publishes a
``validate.<name>.checks`` counter through the active observability
recorder, and a failed one publishes ``validate.<name>.violations``
*before* raising :class:`~repro.validate.errors.InvariantError` — so a
run manifest records both that the checks ran and whether anything
broke.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.obs.recorder import get_recorder
from repro.validate.errors import InvariantError

_FALSY = ("", "0", "false", "no", "off")

#: Process-wide override; ``None`` defers to the environment.
_STRICT: bool | None = None


def strict_enabled() -> bool:
    """Whether strict mode is globally on (override or ``REPRO_STRICT``)."""
    if _STRICT is not None:
        return _STRICT
    return os.environ.get("REPRO_STRICT", "").strip().lower() not in _FALSY


def resolve_strict(flag: bool | None = None) -> bool:
    """Effective strictness for a call site: explicit flag wins, else global."""
    if flag is None:
        return strict_enabled()
    return bool(flag)


def set_strict(enabled: bool | None):
    """Set (or with ``None`` clear) the global strict override.

    Returns the previous override so callers can restore it.
    """
    global _STRICT
    previous = _STRICT
    _STRICT = enabled if enabled is None else bool(enabled)
    return previous


@contextmanager
def strict_mode(enabled: bool = True):
    """Force strict mode on (or off) for the duration of a ``with`` block."""
    previous = set_strict(enabled)
    try:
        yield
    finally:
        set_strict(previous)


def invariant(condition: bool, name: str, detail: str = "") -> None:
    """Assert one named runtime invariant.

    Publishes ``validate.<name>.checks`` through the active recorder;
    on failure additionally publishes ``validate.<name>.violations``
    and raises :class:`InvariantError`.  Call sites are expected to
    gate the call (and any expensive ``detail`` construction) on
    :func:`resolve_strict`, so a non-strict run pays nothing.
    """
    counters = get_recorder().counters
    counters.add("validate.%s.checks" % name)
    if not condition:
        counters.add("validate.%s.violations" % name)
        raise InvariantError(name, detail)
