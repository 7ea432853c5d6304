"""Shared store primitives: errors, hashing, dotted-key flattening.

Everything in :mod:`repro.store` addresses content by SHA-256 of a
canonical byte string; the helpers here are the single definition of
"canonical" so blobs, index rows, and resume matching can never drift
apart.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sqlite3
import time
from typing import Any, Dict, Mapping


class StoreError(ValueError):
    """A result-store operation failed; the message names the path/run.

    Subclasses :class:`ValueError` so the CLI's error net reports it as
    a user-facing message instead of a traceback.
    """


def canonical_json(value: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace drift."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def sha256_text(text: str) -> str:
    """Hex SHA-256 of a text payload (the store's content address)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def config_hash(config) -> str:
    """Content address of a :class:`SimulationConfig` (full hex digest).

    Two configs hash equal iff their canonical dicts are equal — the
    exact identity `run_ensemble` resume uses to decide that a stored
    run already covers a sweep variant.
    """
    return sha256_text(canonical_json(config.to_dict()))


def run_id_for(config) -> str:
    """The run's id: ``r`` + the leading 12 hex chars of the config hash.

    Stable across processes and sessions, so re-running or resubmitting
    the same config against the same store addresses the same row — the
    id of its job, its run and its ``runs/<id>.npz`` alike.
    """
    return "r" + config_hash(config)[:12]


def group_key(config) -> str:
    """Ground-state sharing key: canonical (system, scf, backend-engine).

    Variants that differ only in field/propagation/parallel sections — or
    in backend tuning knobs — share one converged SCF: the sweep planner
    (:func:`repro.api.runs.plan_runs`) converges each group once, and a
    store keeps exactly one ground-state blob per group.
    """
    return canonical_json(
        {
            "system": config.system.to_dict(),
            "scf": config.scf.to_dict(),
            "backend": config.backend.name,
        }
    )


def group_address(config) -> str:
    """Content address of a config's ground-state group."""
    return sha256_text(group_key(config))


def flatten_dotted(data: Mapping[str, Any], prefix: str = "") -> Dict[str, Any]:
    """Nested config dict -> flat ``{"field.params.kick": 0.002, ...}``.

    Leaves are anything non-dict (lists included, as whole values); the
    result is what the index stores per run for dotted-key queries.
    """
    out: Dict[str, Any] = {}
    for key, value in data.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            out.update(flatten_dotted(value, path))
        else:
            out[path] = value
    return out


def utc_now() -> float:
    """Unix timestamp used for index ``created``/``updated`` columns."""
    return time.time()


# --------------------------------------------------------------------------
# sqlite concurrency helpers (the job queue and the schema peek)
# --------------------------------------------------------------------------

#: default seconds a writer waits on a locked database before giving up
SQLITE_BUSY_TIMEOUT_S = 30.0


def _is_busy(exc: sqlite3.OperationalError) -> bool:
    text = str(exc)
    return "locked" in text or "busy" in text


def connect_sqlite(path, timeout_s: float = SQLITE_BUSY_TIMEOUT_S) -> sqlite3.Connection:
    """Open an index database configured for concurrent multi-process use.

    WAL journaling lets readers proceed while one writer commits (the
    server's workers all append results to one store), ``busy_timeout``
    makes lock contention block-and-retry instead of raising instantly,
    and autocommit mode (``isolation_level=None``) leaves transaction
    boundaries to :func:`immediate_txn` so write transactions take the
    database lock up front rather than deadlocking on lock upgrade.
    """
    conn = sqlite3.connect(
        path, check_same_thread=False, timeout=timeout_s, isolation_level=None
    )
    conn.execute("PRAGMA journal_mode=WAL")
    conn.execute(f"PRAGMA busy_timeout={int(timeout_s * 1000)}")
    conn.execute("PRAGMA synchronous=NORMAL")
    return conn


#: :func:`run_immediate`'s whole-transaction attempts and first backoff (s, doubled per retry)
IMMEDIATE_ATTEMPTS = 8
IMMEDIATE_BASE_SLEEP_S = 0.02


def run_immediate(conn: sqlite3.Connection, fn):
    """Run ``fn(conn)`` inside ``BEGIN IMMEDIATE`` ... ``COMMIT``, whole-
    transaction retried on ``SQLITE_BUSY``.

    The immediate begin acquires the write lock before any statement
    runs, so a transaction either starts with the lock held or retries
    whole — no mid-transaction lock-upgrade deadlocks, no partial writes
    visible to other processes.  Exponential backoff on top of
    ``busy_timeout`` covers the (rare) case where the timeout itself
    expires under sustained contention; ``fn`` must therefore be safe to
    re-run (ours are pure upserts).
    """
    attempt = 1
    while True:
        try:
            conn.execute("BEGIN IMMEDIATE")
            try:
                out = fn(conn)
            except BaseException:
                if conn.in_transaction:
                    with contextlib.suppress(sqlite3.OperationalError):
                        conn.execute("ROLLBACK")
                raise
            conn.execute("COMMIT")
            return out
        except sqlite3.OperationalError as exc:
            if conn.in_transaction:
                with contextlib.suppress(sqlite3.OperationalError):
                    conn.execute("ROLLBACK")
            if not _is_busy(exc) or attempt == IMMEDIATE_ATTEMPTS:
                raise
            time.sleep(IMMEDIATE_BASE_SLEEP_S * 2 ** (attempt - 1))
            attempt += 1
