"""``sqlite-discipline`` — all SQLite access flows through
``repro.store.common``.

The store's multi-process safety rests on two helpers:
``connect_sqlite`` (WAL journaling, ``busy_timeout``, autocommit mode)
and ``run_immediate`` (``BEGIN IMMEDIATE`` write transactions retried
whole on SQLITE_BUSY).  A raw ``sqlite3.connect`` elsewhere opens a
rollback-journal connection with a zero busy timeout — the exact
SQLITE_BUSY hazard the 4-process write hammer exists to catch — and a
bare ``conn.commit()`` / hand-rolled ``BEGIN`` reintroduces the
mid-transaction lock-upgrade deadlocks ``run_immediate`` was built to
kill.  So ``sqlite3.connect(...)``, explicit ``BEGIN``/``COMMIT``/``ROLLBACK``
statements and ``.commit()``/``.rollback()`` calls are allowed only in
``store/common.py``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.astutil import ImportMap, const_str
from repro.lint.findings import Finding, SourceModule
from repro.lint.registry import register_rule
from repro.lint.rules import in_scope

RULE = "sqlite-discipline"

#: the blessed home of connect_sqlite / run_immediate
EXEMPT = ("store/common.py",)

_TXN_WORDS = ("BEGIN", "COMMIT", "ROLLBACK")


@register_rule(
    RULE,
    "SQLite only via store.common: connect_sqlite to open, run_immediate to write",
)
def check(module: SourceModule, imports: ImportMap) -> Iterable[Finding]:
    if in_scope(module.rel, files=EXEMPT):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = imports.resolve_call(node)
        if dotted == "sqlite3.connect":
            yield module.finding(
                node, RULE,
                "raw sqlite3.connect() bypasses WAL mode and the busy timeout",
                hint="open through repro.store.common.connect_sqlite",
            )
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in ("commit", "rollback") and not node.args and not node.keywords:
                yield module.finding(
                    node, RULE,
                    f"bare .{attr}() manages transaction boundaries by hand",
                    hint="wrap the write in repro.store.common.run_immediate",
                )
            elif attr in ("execute", "executescript"):
                sql = const_str(node.args[0]) if node.args else None
                if sql is not None and sql.lstrip().upper().startswith(_TXN_WORDS):
                    yield module.finding(
                        node, RULE,
                        f"explicit {sql.split()[0].upper()} statement outside store.common",
                        hint="wrap the write in repro.store.common.run_immediate",
                    )
