"""Project-invariant static analysis (``repro lint``).

The repo's guarantees — bitwise-reproducible trajectories, crash-safe
stores, multi-process-safe SQLite transactions — used to live only in
reviewers' heads and one ad-hoc guard test.  This package machine-checks
them on every PR, the way the golden harness machine-checks physics: an
AST-walking engine (:mod:`repro.lint.engine`) runs registered rules
(:mod:`repro.lint.rules`, same registry idiom as the component
registries) over source files and reports per-rule findings with
``file:line:col`` locations and fix hints.

Inline suppression is the one way to tolerate a finding::

    with tmp.open("wb") as fh:  # repro: lint-ignore[atomic-io]

Exit codes of the CLI verb: 0 clean, 1 findings, 2 usage error.
"""

from repro.lint.engine import (
    LintError,
    LintResult,
    lint_module,
    lint_paths,
    lint_sources,
    package_rel,
)
from repro.lint.findings import Finding, SourceModule
from repro.lint.registry import (
    LintRule,
    available_rules,
    get_rule,
    register_rule,
    rule_catalogue,
)
from repro.lint.report import format_json, format_text

__all__ = [
    "Finding",
    "LintError",
    "LintResult",
    "LintRule",
    "SourceModule",
    "available_rules",
    "format_json",
    "format_text",
    "get_rule",
    "lint_module",
    "lint_paths",
    "lint_sources",
    "package_rel",
    "register_rule",
    "rule_catalogue",
]
