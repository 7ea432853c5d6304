"""``atomic-io`` — persistent artifacts are written temp-then-rename.

A process killed mid-``np.savez`` leaves a truncated ``.npz`` that
explodes on the next load; the crash-safety PR therefore routed every
artifact writer through :func:`repro.utils.io.atomic_savez` /
:func:`atomic_write_text` (temp file in the target directory +
``os.replace``).  This rule keeps it that way for the layers that own
durable state — the result store, the job service, and the result /
ensemble writers in the api package:

- ``np.savez`` / ``np.savez_compressed`` / ``np.save`` direct to a path;
- builtin ``open(path, "w"/"wb"/...)`` and ``Path.open`` in a
  write/truncate mode;
- ``Path.write_text`` / ``Path.write_bytes``.

Append mode (``"a"``) is untouched — the JSON-lines index is an
append-only log by design — as are fd-based ``os.open`` patterns (the
ground-state lease opens its ``.lock`` file ``O_CREAT | O_RDWR`` only to
``flock`` it; nothing is ever written there).  A writer that *implements* the
temp-then-rename dance inline can carry a
``# repro: lint-ignore[atomic-io]`` suppression.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.lint.astutil import ImportMap, call_arg, const_str
from repro.lint.findings import Finding, SourceModule
from repro.lint.registry import register_rule
from repro.lint.rules import in_scope

RULE = "atomic-io"

#: layers that own durable artifacts (the blessed writer itself lives
#: in utils/io.py, outside this scope)
SCOPE_DIRS = ("store/", "serve/")
SCOPE_FILES = (
    "api/simulation.py",
    "api/ensemble.py",
)

_SAVERS = ("numpy.savez", "numpy.savez_compressed", "numpy.save")

_HINT = (
    "write via repro.utils.io.atomic_savez/atomic_write_text "
    "(temp file + os.replace)"
)


def _write_mode(node: ast.Call, index: int) -> Optional[str]:
    """The call's file mode if it is a constant write/truncate mode.

    ``index`` is the mode's positional slot: 1 for builtin
    ``open(path, mode)``, 0 for method-style ``Path.open(mode)``.
    """
    arg = call_arg(node, index, "mode")
    mode = const_str(arg) if arg is not None else None
    if mode is not None and ("w" in mode or "x" in mode):
        return mode
    return None


@register_rule(
    RULE,
    "store/serve/api artifact writes must use utils.io atomic helpers",
)
def check(module: SourceModule, imports: ImportMap) -> Iterable[Finding]:
    if not in_scope(module.rel, dirs=SCOPE_DIRS, files=SCOPE_FILES):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = imports.resolve_call(node)
        if dotted in _SAVERS:
            yield module.finding(
                node, RULE,
                f"direct {dotted}() leaves a truncated file if the process "
                f"dies mid-write",
                hint=_HINT,
            )
            continue
        if dotted == "open":
            mode = _write_mode(node, 1)
            if mode is not None:
                yield module.finding(
                    node, RULE,
                    f"bare open(..., {mode!r}) truncates in place",
                    hint=_HINT,
                )
            continue
        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr == "open":
                # method-style .open() (Path.open and friends); os.open is
                # the lease's open-to-flock pattern, a different discipline
                if dotted == "os.open":
                    continue
                mode = _write_mode(node, 0)
                if mode is not None:
                    yield module.finding(
                        node, RULE,
                        f".open(..., {mode!r}) truncates in place",
                        hint=_HINT,
                    )
            elif attr in ("write_text", "write_bytes"):
                yield module.finding(
                    node, RULE,
                    f".{attr}() truncates in place",
                    hint=_HINT,
                )
