"""Small argument-validation helpers used across the package.

These raise early with informative messages instead of letting numpy
broadcast errors surface deep inside a propagation step.

A setting (a config key or a solver option) is declared once, on its
dataclass field: ``mix_history: int = setting(20, int, lo=1)``.
:func:`check_settings` refuses a value by that declaration and names
the key: ``scf.mix_history must be an integer >= 1, got 0``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional, Tuple

import numpy as np


class ConfigError(ValueError):
    """Invalid simulation config; the message names the bad key."""


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def is_int(value) -> bool:
    """An integer setting; ``True`` is not ``1`` (in a config it would hash apart)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A number setting, not coerced: ``3`` stays ``3``; a boolean or a string is refused."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


#: a declared kind -> (test, what a refusal calls its values)
_KINDS = {
    int: (is_int, "an integer"),
    float: (is_real, "a number"),
    bool: (lambda v: isinstance(v, bool), "a boolean"),
    str: (lambda v: isinstance(v, str) and v != "", "a non-empty string"),
    dict: (lambda v: isinstance(v, Mapping), "a table"),
    tuple: (lambda v: isinstance(v, (list, tuple)), "a list"),
}


def _shown(value: Any) -> str:
    """A value as a config file spells it (booleans lower-case)."""
    return ("true" if value else "false") if isinstance(value, bool) else repr(value)


@dataclass(frozen=True)
class Setting:
    """One setting's rule: its kind, then its choices or its range.

    ``lo`` is exclusive when ``open`` (``lo=0, open=True``: positive);
    ``hi``, inclusive, comes with a ``lo``; ``optional`` admits ``None``
    (unset); ``what`` replaces the description built from the rest.
    """

    kind: type
    lo: Optional[float] = None
    hi: Optional[float] = None
    open: bool = False
    choices: Tuple[Any, ...] = ()
    optional: bool = False
    what: Optional[str] = None

    def accepts(self, value: Any) -> bool:
        if value is None:
            return self.optional
        if not _KINDS[self.kind][0](value):
            return False
        if self.choices:
            return value in self.choices
        if self.lo is not None and (value <= self.lo if self.open else value < self.lo):
            return False
        return self.hi is None or value <= self.hi

    def describe(self) -> str:
        """What an accepted value is, as a refusal says it."""
        if self.what is not None:
            return self.what
        if self.choices:
            shown = ", ".join(_shown(c) for c in self.choices)
            return shown if len(self.choices) == 1 else f"one of {shown}"
        noun = _KINDS[self.kind][1]
        if self.hi is not None:
            return f"{noun} in {'(' if self.open else '['}{self.lo}, {self.hi}]"
        if self.lo is not None:
            return f"{noun} {'>' if self.open else '>='} {self.lo}"
        return noun

    def check(self, value: Any, key: str) -> None:
        """Raise :class:`ConfigError` naming ``key`` unless ``value`` is accepted."""
        if not self.accepts(value):
            raise ConfigError(f"{key} must be {self.describe()}, got {_shown(value)}")


def setting(default: Any, kind: type, **rule: Any):
    """A dataclass field carrying its :class:`Setting` (``rule`` is the
    keywords after ``kind``); a ``{}`` default is a fresh dict per instance."""
    metadata = {"setting": Setting(kind, **rule)}
    if isinstance(default, dict):
        return field(default_factory=dict, metadata=metadata)
    return field(default=default, metadata=metadata)


def declaration(cls_or_obj, name: str) -> Optional[Setting]:
    """The :class:`Setting` declared on field ``name`` (``None`` if undeclared)."""
    return {f.name: f for f in fields(cls_or_obj)}[name].metadata.get("setting")


def check_settings(obj, scope: str) -> None:
    """Refuse the first declared field of ``obj`` whose value breaks its
    declaration, naming it ``scope.field``; checks only, assigns nothing."""
    for f in fields(obj):
        rule = f.metadata.get("setting")
        if rule is not None:
            rule.check(getattr(obj, f.name), f"{scope}.{f.name}")


def check_square(mat: np.ndarray, name: str = "matrix") -> int:
    """Check ``mat`` is a square 2-D array; return its dimension."""
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be square 2-D, got shape {mat.shape}")
    return mat.shape[0]


def check_hermitian(mat: np.ndarray, name: str = "matrix", atol: float = 1e-10) -> None:
    """Check ``mat`` equals its conjugate transpose within ``atol``."""
    check_square(mat, name)
    dev = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
    if dev > atol:
        raise ValueError(f"{name} is not Hermitian (max deviation {dev:.3e} > {atol:.1e})")

