"""``removed-api`` — names deleted from the package do not come back.

Every deletion round leaves names that old notebooks, stale branches
and muscle memory still reach for.  :mod:`repro.removed` is the table
of them; this rule flags, anywhere in the package,

- an ``import`` / ``from ... import`` of a removed module or function,
- an attribute access that resolves to one, or that names a removed
  method or property (the table's ``Class.member`` entries),

with the replacement from the table as the hint.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, Optional

from repro.lint.astutil import ImportMap
from repro.lint.findings import Finding, SourceModule
from repro.lint.registry import register_rule
from repro.removed import REMOVED_NAMES

RULE = "removed-api"

_MODULES = tuple(n for n in REMOVED_NAMES if n.startswith("repro."))
_FUNCTIONS = {n for n in REMOVED_NAMES if "." not in n}
#: ``Class.member`` entries by member name: what an attribute access can show
_MEMBERS = {n.split(".")[1]: n for n in REMOVED_NAMES if "." in n and n not in _MODULES}


def _removed(dotted: Optional[str]) -> Optional[str]:
    """The removed module or function a dotted name refers to, if any."""
    if not dotted:
        return None
    for module in _MODULES:
        if dotted == module or dotted.startswith(module + "."):
            return module
    leaf = dotted.rsplit(".", 1)[-1]
    return leaf if leaf in _FUNCTIONS else None


def _root_is_import(node: ast.Attribute, imports: ImportMap) -> bool:
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and (node.id in imports.modules or node.id in imports.names)


def _hits(node: ast.AST, imports: ImportMap) -> Iterator[Optional[str]]:
    if isinstance(node, ast.Import):
        for alias in node.names:
            yield _removed(alias.name)
    elif isinstance(node, ast.ImportFrom):
        for alias in node.names:
            yield _removed(imports.names.get(alias.asname or alias.name))
    elif isinstance(node, ast.Attribute):
        yield _removed(imports.resolve(node) or node.attr)
        # ``repro.lint.engine`` is a module; ``grid.engine`` is the member
        if node.attr in _MEMBERS and not _root_is_import(node, imports):
            yield _MEMBERS[node.attr]


@register_rule(RULE, "modules, functions and members listed in repro.removed stay gone")
def check(module: SourceModule, imports: ImportMap) -> Iterable[Finding]:
    for node in ast.walk(module.tree):
        for name in _hits(node, imports):
            if name is not None:
                yield module.finding(
                    node, RULE,
                    f"{name} was removed from the package",
                    hint=f"instead: {REMOVED_NAMES[name]}",
                )
