"""Lazy package re-exports (PEP 562).

Each package ``__init__`` lists its public names once, in a table from
defining module to names, and :func:`lazy_exports` serves that table as
the package's ``__getattr__``, ``__dir__`` and ``__all__``.  A name's
defining module is imported on first access, so ``import repro.cli``
loads no model code and each command imports only what it runs, while
``from repro import ExperimentRunner`` keeps working.
"""

from __future__ import annotations

import importlib


def lazy_exports(namespace: dict, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for the package ``namespace``.

    ``table`` maps a module, relative to the package (``".runner"``), to
    the public names it defines.  A name is imported on first access and
    then cached in ``namespace``, so later lookups are plain attribute
    reads.  Any other name raises ``AttributeError``, which is what lets
    ``from package import submodule`` fall back to importing the
    submodule.
    """
    package = namespace["__name__"]
    where = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                "module %r has no attribute %r" % (package, name)
            )
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__():
        return sorted(namespace.keys() | where.keys())

    return __getattr__, __dir__, list(where)
