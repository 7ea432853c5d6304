"""Built-in project-invariant rules.

Importing this package registers every rule; each module encodes one
invariant PRs 1-9 established:

- ``sqlite-discipline`` — all SQLite access flows through
  ``store.common`` (``connect_sqlite`` + ``run_immediate``);
- ``atomic-io`` — persistent artifacts are written temp-then-rename via
  ``repro.utils.io``;
- ``fft-isolation`` — raw FFT libraries appear only in
  ``repro/backend/`` (transforms must hit the counters);
- ``determinism`` — physics modules contain no wall-clock or unseeded
  randomness;
- ``config-immutability`` — frozen config dataclasses are never
  mutated from outside;
- ``pickle-safety`` — nothing unpicklable rides across the
  ``multiprocessing`` spawn boundary.
"""

from __future__ import annotations

from typing import Sequence


def in_scope(rel: str, dirs: Sequence[str] = (), files: Sequence[str] = ()) -> bool:
    """Is the package-relative path under one of ``dirs`` or one of ``files``?"""
    rel = rel.replace("\\", "/")
    return any(rel.startswith(d) for d in dirs) or rel in files


from repro.lint.rules import (  # noqa: E402,F401  (import = registration)
    atomic_io,
    config_immutability,
    determinism,
    fft_isolation,
    pickle_safety,
    sqlite_discipline,
)
