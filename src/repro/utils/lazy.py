"""Lazy re-exports for the package facades.

A facade (``repro``, ``repro.api``, ``repro.parallel``, ``repro.serve``,
``repro.store``)
names its public objects in a map from name to defining module and
imports that module the first time the name is read, not when the
facade is.  So a process that only routes — the job service, ``repro
jobs`` on a store directory or a server — reaches ``repro.api.config`` or
``repro.serve.queue`` through a facade without importing the physics
(pocketfft and the Fock/SCF/propagator stack) that other names of the
same facade pull in::

    _EXPORTS = {"JobQueue": ".queue", "JobService": ".service"}
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
    __all__ = sorted(_EXPORTS)
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of facade ``package``.

    ``exports`` maps each public name to the module that defines it,
    relative to ``package`` when it starts with a dot.  A name is bound
    in the facade's namespace on first read, so later reads are plain
    attribute lookups.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__
