"""Crash-safe file writing shared by every artifact writer.

All persistent artifacts — results, checkpoints, ensembles, the store's
blobs and run files, downloaded job results — go through
:func:`atomic_savez` / :func:`atomic_write_text` / :func:`atomic_write_stream`:
the payload is written to a temporary file *in the target directory* and
moved into place with :func:`os.replace`, which is atomic on POSIX and
NTFS.  A process killed mid-write leaves either the old file or nothing,
never a truncated ``.npz`` that explodes on the next load.
"""

from __future__ import annotations

import os
import shutil
from pathlib import Path
from typing import Any

import numpy as np

from repro.trace import span


def _npz_target(path) -> Path:
    """The path :func:`numpy.savez` would actually write for ``path``.

    numpy appends ``.npz`` to names that lack it; resolving that here
    keeps the temp file and the final :func:`os.replace` target in sync
    (and lets callers return the real on-disk path).
    """
    path = Path(path)
    if not path.name.endswith(".npz"):
        path = path.with_name(path.name + ".npz")
    return path


def atomic_savez(path, **payload: Any) -> Path:
    """``np.savez(path, **payload)`` with temp-file + rename durability.

    Returns the resolved target path (with the ``.npz`` suffix numpy
    enforces).  The temporary file lives next to the target so the final
    rename never crosses a filesystem boundary.
    """
    target = _npz_target(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.parent / f".{target.name}.tmp-{os.getpid()}.npz"
    try:
        # the span's exit is the one point where the temp file is complete
        # and not yet renamed
        with span("io.savez"):
            np.savez(tmp, **payload)
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)
    return target


def atomic_write_text(path, text: str) -> Path:
    """Write ``text`` to ``path`` via temp file + :func:`os.replace`."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def atomic_write_stream(path, stream) -> Path:
    """Copy the binary file-like ``stream`` to ``path`` via temp file +
    :func:`os.replace`; a stream that fails mid-copy leaves ``path`` as
    it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp-{os.getpid()}"
    try:
        with tmp.open("wb") as fh:
            shutil.copyfileobj(stream, fh, 1 << 16)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path
