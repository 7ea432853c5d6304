"""Rendering a :class:`~repro.lint.engine.LintResult` as text or JSON.

Text is the human default (one ``path:line:col: rule: message`` per
finding plus a summary line); JSON is what the CI job consumes and is
versioned so downstream tooling can detect format changes.
"""

from __future__ import annotations

import json
from typing import Dict

from repro.lint.engine import LintResult

REPORT_VERSION = 2


def _summary_line(result: LintResult) -> str:
    extra = f" ({result.suppressed} suppressed)" if result.suppressed else ""
    n = len(result.findings)
    noun = "finding" if n == 1 else "findings"
    return (
        f"{n} {noun} in {result.files} file(s), "
        f"{len(result.rules)} rule(s){extra}"
    )


def format_text(result: LintResult) -> str:
    lines = [f.format() for f in result.findings]
    if lines:
        counts = result.counts_by_rule()
        lines.append("")
        lines.append(
            "by rule: "
            + ", ".join(f"{rule}={counts[rule]}" for rule in sorted(counts))
        )
    lines.append(_summary_line(result))
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    payload: Dict = {
        "version": REPORT_VERSION,
        "clean": result.clean,
        "files": result.files,
        "rules": result.rules,
        "suppressed": result.suppressed,
        "counts": result.counts_by_rule(),
        "findings": [f.to_dict() for f in result.findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
