"""The SQLite index schema: one version, created whole.

The on-disk schema carries its version in a ``meta`` table.  This build
reads and writes exactly ``SCHEMA_VERSION``: a fresh database is created
at it, and any other version is refused by name — a *newer* index
because the code cannot know what the extra columns mean, an *older* one
because nothing upgrades in place.  The policy: a schema change bumps
the version and refuses older stores by name until someone names a store
that needs upgrading.  (``repro validate`` reports either case as a
warning through :func:`version_problem`.)

Creation runs inside one :func:`~repro.store.common.run_immediate`
transaction with the version re-read under the write lock, so concurrent
first openers — the job server's worker processes all open the same
store on boot — serialize: the first creates the schema, the rest find
it there.  (That is also why the DDL is issued statement by statement
instead of via ``executescript``, which force-commits any pending
transaction before running.)
"""

from __future__ import annotations

import sqlite3
from typing import Optional

from repro.store.common import StoreError, run_immediate

#: schema version this build reads and writes (3 and below: repro <= 1.9)
SCHEMA_VERSION = 4

_SCHEMA = (
    """
    CREATE TABLE meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE runs (
        run_id         TEXT PRIMARY KEY,
        config_hash    TEXT NOT NULL,
        gs_address     TEXT,
        status         TEXT NOT NULL,
        error          TEXT,
        created        REAL NOT NULL,
        updated        REAL NOT NULL,
        elapsed        REAL NOT NULL DEFAULT 0.0,
        n_times        INTEGER NOT NULL DEFAULT 0,
        config_json    TEXT NOT NULL,
        overrides_json TEXT,
        fft_json       TEXT,
        parallel_json  TEXT
    )
    """,
    "CREATE INDEX runs_config_hash ON runs (config_hash)",
    "CREATE INDEX runs_status ON runs (status)",
    # every flattened config leaf (``field.params.kick`` -> canonical JSON
    # value), so dotted-key queries filter in SQL
    """
    CREATE TABLE config_kv (
        run_id TEXT NOT NULL,
        key    TEXT NOT NULL,
        value  TEXT NOT NULL,
        PRIMARY KEY (run_id, key)
    )
    """,
    "CREATE INDEX config_kv_key_value ON config_kv (key, value)",
    # the durable queue ``repro serve`` drains: one row per submitted
    # config (idempotent by ``config_hash``), claimed atomically by worker
    # processes, retried with backoff, re-queued on worker death
    """
    CREATE TABLE jobs (
        job_id       TEXT PRIMARY KEY,
        config_hash  TEXT NOT NULL,
        config_json  TEXT NOT NULL,
        status       TEXT NOT NULL,
        error        TEXT,
        run_id       TEXT,
        worker       TEXT,
        attempts     INTEGER NOT NULL DEFAULT 0,
        max_attempts INTEGER NOT NULL DEFAULT 3,
        timeout      REAL NOT NULL DEFAULT 0.0,
        created      REAL NOT NULL,
        updated      REAL NOT NULL,
        started      REAL,
        finished     REAL,
        deadline     REAL,
        not_before   REAL NOT NULL DEFAULT 0.0,
        progress     REAL NOT NULL DEFAULT 0.0,
        message      TEXT
    )
    """,
    "CREATE INDEX jobs_status_created ON jobs (status, created)",
    "CREATE INDEX jobs_config_hash ON jobs (config_hash)",
    # live worker registrations (pid + heartbeat)
    """
    CREATE TABLE workers (
        worker_id TEXT PRIMARY KEY,
        pid       INTEGER,
        started   REAL,
        heartbeat REAL,
        state     TEXT,
        job_id    TEXT
    )
    """,
    # full execution history, so a flaky job's past stays queryable
    """
    CREATE TABLE job_attempts (
        job_id   TEXT NOT NULL,
        attempt  INTEGER NOT NULL,
        worker   TEXT,
        started  REAL,
        finished REAL,
        outcome  TEXT,
        error    TEXT,
        PRIMARY KEY (job_id, attempt)
    )
    """,
    f"INSERT INTO meta (key, value) VALUES ('schema_version', '{SCHEMA_VERSION}')",
)


def version_problem(what: str, found: int, ours: int) -> Optional[str]:
    """Why this build cannot open ``what`` at version ``found`` (``None``: it can).

    The one wording for both versioned files of a store (``store.json``'s
    ``store_version`` and the index's schema version), raised on open
    and printed by ``repro validate``.
    """
    if found == ours:
        return None
    if found > ours:
        return f"{what} {found}, newer than this build's {ours}; upgrade repro to open it"
    return (
        f"{what} {found}, written by repro <= 1.9; this build reads only {ours} "
        f"and upgrades nothing in place: export its runs with the build that "
        f"wrote it (repro results export) and add them to a new store"
    )


def schema_version(conn: sqlite3.Connection) -> int:
    """The on-disk schema version (0 for an empty/uninitialized database)."""
    try:
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
    except sqlite3.OperationalError:
        return 0
    return int(row[0]) if row else 0


def ensure_schema(conn: sqlite3.Connection, path="index") -> int:
    """Create the schema in an empty database, or check the one there.

    Returns ``SCHEMA_VERSION``; any other on-disk version raises
    :class:`StoreError` and leaves the database as it was.  ``conn`` must
    come from :func:`~repro.store.common.connect_sqlite` (autocommit mode).
    """

    def create_if_empty(conn: sqlite3.Connection) -> int:
        version = schema_version(conn)  # re-read: another opener may have won the lock
        if version == 0:
            for statement in _SCHEMA:
                conn.execute(statement)
            version = SCHEMA_VERSION
        return version

    version = schema_version(conn) or run_immediate(conn, create_if_empty)
    problem = version_problem("schema version", version, SCHEMA_VERSION)
    if problem:
        raise StoreError(f"store index {path} has {problem}")
    return version
