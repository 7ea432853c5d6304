"""``pickle-safety`` — nothing unpicklable crosses the spawn boundary.

The serve worker pool — which parallel sweeps run on too — ships work to
**spawned** processes: every ``Process(args=...)`` tuple and every
``executor.submit(...)`` argument is pickled.  SQLite connections,
locks, and open file handles don't pickle — and worse, the failure is
deferred (the parent raises at submit time at best, the child crashes
on first use at worst).  The established discipline is to pass *paths
and plain data* (``store_root``, config JSON) and let each process open
its own handles.

In the boundary modules (``serve/pool.py``, ``serve/worker.py``) this
rule flags known-unpicklable constructors —
``sqlite3.connect`` / ``connect_sqlite``, ``threading``/
``multiprocessing`` locks and events, builtin ``open`` — when they are:

- stored on ``self`` (worker-pool objects outlive submits;
  a handle attribute is one refactor away from riding a closure into
  ``submit``), or
- passed (directly, or via a local variable assigned from one) into
  ``Process(...)`` args or an executor ``submit``/``map`` call.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable

from repro.lint.astutil import ImportMap
from repro.lint.findings import Finding, SourceModule
from repro.lint.registry import register_rule
from repro.lint.rules import in_scope

RULE = "pickle-safety"

#: modules whose objects/arguments cross the multiprocessing spawn boundary
SCOPE_FILES = ("serve/pool.py", "serve/worker.py")

#: constructors whose results never survive pickling
HAZARDS = {
    "sqlite3.connect": "a sqlite3.Connection",
    "repro.store.common.connect_sqlite": "a sqlite3.Connection",
    "connect_sqlite": "a sqlite3.Connection",
    "open": "an open file handle",
    "threading.Lock": "a lock",
    "threading.RLock": "a lock",
    "threading.Condition": "a condition variable",
    "threading.Event": "an event",
    "threading.Semaphore": "a semaphore",
    "multiprocessing.Lock": "a lock",
    "multiprocessing.RLock": "a lock",
}

#: call names that mean "this argument list gets pickled"
_SHIP_ATTRS = ("submit", "map", "apply_async", "starmap")

_HINT = (
    "pass paths / plain data across the spawn boundary and reopen "
    "handles inside the child process"
)


def _hazard_of(dotted: str) -> str:
    if dotted in HAZARDS:
        return HAZARDS[dotted]
    # an aliased import of connect_sqlite still resolves to the dotted path
    if dotted.endswith(".connect_sqlite"):
        return "a sqlite3.Connection"
    return ""


def _is_ship_call(node: ast.Call, imports: ImportMap) -> bool:
    """Does this call pickle its arguments (Process(...) / pool submit)?"""
    if isinstance(node.func, ast.Attribute):
        # covers ctx.Process and mp.get_context("spawn").Process, whose
        # root is a call result no import map can resolve
        return node.func.attr in _SHIP_ATTRS or node.func.attr == "Process"
    dotted = imports.resolve_call(node) or ""
    return dotted == "Process" or dotted.endswith(".Process")


def check_function(
    func: ast.AST, module: SourceModule, imports: ImportMap
) -> Iterable[Finding]:
    """Per-function pass: taint locals assigned from hazard constructors,
    flag hazards (direct or tainted) stored on self or shipped."""
    tainted: Dict[str, str] = {}
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            if isinstance(node.value, ast.Call):
                dotted = imports.resolve_call(node.value) or ""
                what = _hazard_of(dotted)
                if what:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            tainted[target.id] = what
                        elif (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            yield module.finding(
                                node, RULE,
                                f"{what} stored on self.{target.attr} — this "
                                f"object crosses the spawn boundary",
                                hint=_HINT,
                            )
        elif isinstance(node, ast.Call) and _is_ship_call(node, imports):
            shipped = list(node.args) + [kw.value for kw in node.keywords]
            for arg in shipped:
                for sub in ast.walk(arg):
                    if isinstance(sub, ast.Call):
                        what = _hazard_of(imports.resolve_call(sub) or "")
                        if what:
                            yield module.finding(
                                sub, RULE,
                                f"{what} passed across the spawn boundary "
                                f"(arguments are pickled)",
                                hint=_HINT,
                            )
                    elif isinstance(sub, ast.Name) and sub.id in tainted:
                        yield module.finding(
                            sub, RULE,
                            f"{tainted[sub.id]} ({sub.id}) passed across the "
                            f"spawn boundary (arguments are pickled)",
                            hint=_HINT,
                        )


@register_rule(
    RULE,
    "no connections/locks/handles across the multiprocessing spawn boundary",
)
def check(module: SourceModule, imports: ImportMap) -> Iterable[Finding]:
    if not in_scope(module.rel, files=SCOPE_FILES):
        return
    yield from check_function(module.tree, module, imports)
