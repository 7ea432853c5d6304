"""The analysis engine: walk files, run rules, apply suppressions,
return a :class:`LintResult`.

Scoping model
-------------
Every file gets a *package-relative* path (``store/store.py``) by
walking up through ``__init__.py`` directories to the package root, so
rules can say "exempt ``store/common.py``" no matter where the tree is
checked out or which path argument the user passed.  Trees that are not
packages fall back to the scanned-root-relative path, which is what the
synthetic fixtures in the rule unit tests rely on.

Suppressions
------------
``# repro: lint-ignore[rule-a,rule-b]`` on the finding's line or the
line directly above suppresses those rules there; a bare
``# repro: lint-ignore`` suppresses every rule on that line.  Suppressed
findings are counted (``LintResult.suppressed``) but never reported.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.lint.astutil import ImportMap
from repro.lint.findings import Finding, SourceModule
from repro.lint.registry import LintRule, available_rules, get_rule


class LintError(ValueError):
    """A lint invocation itself is invalid (unknown rule, bad path,
    unparseable source).  Subclasses :class:`ValueError` so the CLI's
    error net reports it as a usage error (exit code 2), distinct from
    exit code 1 = findings."""


#: suppression comment syntax (same line or the line above a finding)
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ignore(?:\[([A-Za-z0-9_,\- ]+)\])?")

#: marker for "every rule suppressed on this line"
_ALL = "*"


@dataclass
class LintResult:
    """The outcome of one lint pass."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0
    rules: List[str] = field(default_factory=list)
    suppressed: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings

    def counts_by_rule(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out


def package_rel(path: Path) -> str:
    """Path of ``path`` relative to its topmost package directory.

    ``.../src/repro/store/store.py`` -> ``store/store.py``; a file
    outside any package keeps just its name.
    """
    path = Path(path).resolve()
    top: Optional[Path] = None
    parent = path.parent
    while (parent / "__init__.py").exists():
        top = parent
        parent = parent.parent
    if top is None:
        return path.name
    return path.relative_to(top).as_posix()


def iter_source_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, deduplicated ``.py`` list."""
    seen: Set[Path] = set()
    out: List[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates = sorted(p.rglob("*.py"))
        elif p.is_file():
            candidates = [p]
        else:
            raise LintError(f"lint path {p} does not exist")
        for c in candidates:
            r = c.resolve()
            if r not in seen:
                seen.add(r)
                out.append(c)
    return out


def _display_path(path: Path) -> str:
    """Prefer a path relative to the CWD in messages (clickable, short)."""
    try:
        return os.path.relpath(path)
    except ValueError:  # different drive (windows)
        return str(path)


def resolve_rules(rules: Optional[Sequence[str]] = None) -> List[LintRule]:
    """Rule names -> rule objects; None means every registered rule."""
    names = list(rules) if rules is not None else available_rules()
    if not names:
        raise LintError("no lint rules selected")
    from repro.api.registry import RegistryError

    resolved = []
    for name in names:
        try:
            resolved.append(get_rule(str(name).strip()))
        except RegistryError as exc:
            raise LintError(str(exc)) from exc
    return resolved


def suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Line number -> set of suppressed rule names (``{"*"}`` = all)."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(lines, 1):
        m = _SUPPRESS_RE.search(line)
        if not m:
            continue
        if m.group(1) is None:
            out[lineno] = {_ALL}
        else:
            out[lineno] = {part.strip() for part in m.group(1).split(",") if part.strip()}
    return out


def _is_suppressed(finding: Finding, table: Dict[int, Set[str]]) -> bool:
    for lineno in (finding.line, finding.line - 1):
        rules = table.get(lineno)
        if rules and (_ALL in rules or finding.rule in rules):
            return True
    return False


def lint_module(module: SourceModule, rules: Sequence[LintRule]) -> List[Finding]:
    """Run ``rules`` over one parsed module, suppressions *not* applied
    (that is :func:`lint_sources`' job — rules stay pure)."""
    imports = ImportMap(module.tree, module.rel)
    findings: List[Finding] = []
    seen: Set[tuple] = set()
    for rule in rules:
        for finding in rule.check(module, imports):
            # nested attribute chains can report one site twice; keep the first
            key = (finding.rule, finding.rel, finding.line, finding.col)
            if key not in seen:
                seen.add(key)
                findings.append(finding)
    return findings


def lint_sources(
    modules: Iterable[SourceModule],
    rules: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint already-parsed modules (the testable core of the engine)."""
    resolved = resolve_rules(rules)
    result = LintResult(rules=[r.name for r in resolved])
    kept: List[Finding] = []
    for module in modules:
        result.files += 1
        table = suppressions(module.lines)
        for finding in lint_module(module, resolved):
            if _is_suppressed(finding, table):
                result.suppressed += 1
            else:
                kept.append(finding)
    result.findings = sorted(kept)
    return result


def lint_paths(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint files/directories; the entry point the CLI and tests use."""
    modules = []
    for path in iter_source_files(paths):
        try:
            modules.append(
                SourceModule.parse(
                    path, rel=package_rel(path), display=_display_path(path)
                )
            )
        except SyntaxError as exc:
            raise LintError(f"cannot parse {path}: {exc}") from exc
    return lint_sources(modules, rules=rules)
