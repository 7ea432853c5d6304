"""The lint-rule registry: the same string-keyed registry idiom as
:mod:`repro.api.registry`, reusing its :class:`Registry` directly.

A rule is a function ``(SourceModule, ImportMap) -> Iterable[Finding]``
registered with a name and a one-line description::

    @register_rule("my-rule", "what invariant it machine-checks")
    def my_rule(module, imports):
        for node in ast.walk(module.tree):
            ...
            yield module.finding(node, "my-rule", "message", hint="fix")

Registered rules surface in ``repro lint --list``, ``repro components``
(alongside cells/functionals/fields/propagators/backends), and
the README catalogue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List

from repro.api.registry import Registry, RegistryError

from repro.lint.astutil import ImportMap
from repro.lint.findings import Finding, SourceModule

__all__ = [
    "LintRule",
    "RULES",
    "RegistryError",
    "register_rule",
    "get_rule",
    "available_rules",
    "rule_catalogue",
]

RuleCheck = Callable[[SourceModule, ImportMap], Iterable[Finding]]


@dataclass(frozen=True)
class LintRule:
    """A registered rule: name, human description, check function."""

    name: str
    description: str
    check: RuleCheck


#: the lint-rule registry (fifth registry of the project, after cells /
#: functionals / fields / propagators and the backend registry)
RULES = Registry("lint rule")


def register_rule(name: str, description: str):
    """Register a rule check function under ``name`` (decorator)."""

    def _register(fn: RuleCheck) -> RuleCheck:
        RULES.register(name, LintRule(name=name, description=description, check=fn))
        return fn

    return _register


def _load_builtins() -> None:
    # importing the subpackage registers every built-in rule exactly once
    import repro.lint.rules  # noqa: F401


def get_rule(name: str) -> LintRule:
    _load_builtins()
    return RULES.get(name)


def available_rules() -> List[str]:
    _load_builtins()
    return RULES.names()


def rule_catalogue() -> Dict[str, str]:
    """``{rule name: description}`` for the CLI and docs."""
    _load_builtins()
    return {name: RULES.get(name).description for name in RULES.names()}
