"""A module imported on first use, for names read at call time."""

from __future__ import annotations

import importlib


class LazyModule:
    """Stands in for the module ``name`` and imports it on the first
    attribute read.

    Every attribute read once is kept on this object, so later reads are
    plain attribute reads with no import lookup. The module-level name that
    holds this object is never rebound by it, so a tracer or a test can swap
    that name and restore it by identity. Concurrent first reads are safe:
    the import system lets one thread run the import and makes the others
    wait for it, and every thread keeps the same value.
    """

    def __init__(self, name: str):
        self._lazy_name = name

    def __getattr__(self, attr: str):
        value = getattr(importlib.import_module(self._lazy_name), attr)
        setattr(self, attr, value)
        return value
