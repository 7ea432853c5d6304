"""The data model of the linter: one source module, one finding.

A :class:`SourceModule` is what every rule receives — parsed AST plus
the raw lines, and two path views: ``path`` (where the file actually
is, used for display) and ``rel`` (the file's location *inside the
repro package*, used for scoping decisions like "is this under
``store/``", wherever the tree is checked out).

A :class:`Finding` is one rule violation pinned to ``file:line:col``
with a message and a fix hint.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str  #: display path (as scanned, e.g. ``src/repro/store/store.py``)
    line: int
    col: int
    rule: str
    message: str
    hint: str = ""
    rel: str = ""  #: package-relative path (``store/store.py``)

    def format(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class SourceModule:
    """A parsed source file handed to every lint rule."""

    path: Path
    rel: str
    text: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    display: str = ""

    @classmethod
    def parse(
        cls,
        path,
        rel: Optional[str] = None,
        text: Optional[str] = None,
        display: Optional[str] = None,
    ) -> "SourceModule":
        """Parse ``path`` (or explicit ``text`` for synthetic modules).

        ``rel`` defaults to the file name; the engine passes the real
        package-relative path, tests pass whatever location the snippet
        is pretending to live at.
        """
        path = Path(path)
        if text is None:
            text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        return cls(
            path=path,
            rel=(rel if rel is not None else path.name),
            text=text,
            tree=tree,
            lines=text.splitlines(),
            display=display if display is not None else str(path),
        )

    def finding(self, node: ast.AST, rule: str, message: str, hint: str = "") -> Finding:
        """Build a :class:`Finding` anchored at ``node``'s location."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        return Finding(
            path=self.display or str(self.path),
            line=line,
            col=col,
            rule=rule,
            message=message,
            hint=hint,
            rel=self.rel,
        )
