"""Replace a program function from outside, where its callers look it up."""

from __future__ import annotations

import importlib
from contextlib import contextmanager


@contextmanager
def replaced(targets):
    """Install wrappers for the duration of a ``with`` block.

    ``targets`` is a list of (key, attribute, module names, make_wrapper). For
    each module that has the attribute, the attribute is replaced by
    ``make_wrapper(key, original)``; a function reached through several
    modules gets one wrapper. Yields the set of keys found in no module
    (a module that no longer exists counts as not having the attribute).
    """
    restore = []
    missing = set()
    try:
        for key, attribute, module_names, make_wrapper in targets:
            wrappers = {}
            for name in module_names:
                try:
                    module = importlib.import_module(name)
                except ModuleNotFoundError:
                    continue
                original = getattr(module, attribute, None)
                if original is None:
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = make_wrapper(key, original)
                restore.append((module, attribute, original))
                setattr(module, attribute, wrappers[id(original)])
            if not wrappers:
                missing.add(key)
        yield missing
    finally:
        for module, attribute, original in reversed(restore):
            setattr(module, attribute, original)
