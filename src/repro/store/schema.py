"""A store's two versioned files: ``store.json`` and the index schema.

The on-disk schema carries its version in a ``meta`` table.  This build
reads and writes exactly ``SCHEMA_VERSION``: a fresh database is created
at it, and any other version is refused by name — a *newer* index
because the code cannot know what the extra columns mean, an *older* one
because nothing upgrades in place.  The policy: a schema change bumps
the version and refuses older stores by name, naming the releases that
wrote them, until someone names a store that needs upgrading.
(``repro validate`` reports either case as a warning through
:func:`inspect_store`.)

Creation runs inside one :func:`~repro.store.common.run_immediate`
transaction with the version re-read under the write lock, so concurrent
first openers — the job server's worker processes all open the same
store on boot — serialize: the first creates the schema, the rest find
it there.  (That is also why the DDL is issued statement by statement
instead of via ``executescript``, which force-commits any pending
transaction before running.)
"""

from __future__ import annotations

import json
import os
import sqlite3
from pathlib import Path
from typing import Any, Dict, List, Mapping, NamedTuple, Optional

from repro.store.common import StoreError, connect_sqlite, run_immediate

#: schema version this build reads and writes
SCHEMA_VERSION = 5

#: the releases that wrote each older schema version (CHANGES.md): 1.5
#: created 1 and migrated it to 2 on open, 1.6 added the job tables (3),
#: 1.10 made a run one file (4)
SCHEMA_WRITTEN_BY = {1: "1.5", 2: "1.5", 3: "1.6 to 1.9", 4: "1.10 to 1.28"}

#: version of the directory layout (not the index schema)
STORE_VERSION = 2

#: the releases that wrote each older layout: 1 kept each run as a
#: directory of several files
STORE_WRITTEN_BY = {1: "1.5 to 1.9"}

#: the one index backend; ``store.json`` records it so an older build
#: that still had others refuses a store it cannot read
INDEX_BACKEND = "sqlite"

#: the index database's file name inside a store directory
INDEX_FILENAME = "index.sqlite"

_SCHEMA = (
    """
    CREATE TABLE meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    # one row per run: the config as submitted, its queue state, and once
    # it is ``ok`` its result's accounting (the columns of StoredRun, in
    # order; the JSON ones as ``<field>_json`` text)
    """
    CREATE TABLE jobs (
        run_id         TEXT PRIMARY KEY,
        config_hash    TEXT NOT NULL,
        status         TEXT NOT NULL,
        error          TEXT,
        worker         TEXT,
        attempts       INTEGER NOT NULL DEFAULT 0,
        max_attempts   INTEGER NOT NULL DEFAULT 1,
        timeout        REAL NOT NULL DEFAULT 0.0,
        created        REAL NOT NULL,
        updated        REAL NOT NULL,
        started        REAL,
        finished       REAL,
        deadline       REAL,
        not_before     REAL NOT NULL DEFAULT 0.0,
        progress       REAL NOT NULL DEFAULT 0.0,
        message        TEXT,
        config_json    TEXT NOT NULL,
        overrides_json TEXT NOT NULL DEFAULT '{}',
        gs_address     TEXT,
        elapsed        REAL NOT NULL DEFAULT 0.0,
        n_times        INTEGER NOT NULL DEFAULT 0,
        fft_json       TEXT,
        parallel_json  TEXT
    )
    """,
    "CREATE INDEX jobs_status_created ON jobs (status, created)",
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
    # worker registrations, written by releases up to 1.29.0: nothing reads
    # or writes them now (a worker is its lock file); the next bump drops it
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
    # every attempt of every run, so a flaky job's past stays queryable
    """
    CREATE TABLE job_attempts (
        run_id   TEXT NOT NULL,
        attempt  INTEGER NOT NULL,
        worker   TEXT,
        started  REAL,
        finished REAL,
        outcome  TEXT,
        error    TEXT,
        PRIMARY KEY (run_id, attempt)
    )
    """,
    f"INSERT INTO meta (key, value) VALUES ('schema_version', '{SCHEMA_VERSION}')",
)


def version_problem(
    what: str, found: int, ours: int, written_by: Mapping[int, str]
) -> Optional[str]:
    """Why this build cannot open ``what`` at version ``found`` (``None``: it can).

    The one wording for both versioned files of a store (``store.json``'s
    ``store_version`` and the index's schema version), raised on open
    and printed by ``repro validate``; ``written_by`` names the releases
    that wrote each older version.
    """
    if found == ours:
        return None
    if found > ours:
        return f"{what} {found}, newer than this build's {ours}; upgrade repro to open it"
    writer = f"repro {written_by[found]}" if found in written_by else "no release"
    return (
        f"{what} {found}, written by {writer}; this build reads only {ours} "
        f"and upgrades nothing in place: export its runs with the build that "
        f"wrote it (repro results export STORE RUN_ID NPZ) and add them to a new store"
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
    problem = version_problem("schema version", version, SCHEMA_VERSION, SCHEMA_WRITTEN_BY)
    if problem:
        raise StoreError(f"store index {path} has {problem}")
    return version


class StoreCheck(NamedTuple):
    """What :func:`inspect_store` finds at a usable store path."""

    #: ``store.json``; ``None`` where a store would be created
    meta: Optional[Dict[str, Any]]
    #: the index's schema version (``None``: no index yet)
    schema_version: Optional[int]
    #: why this build cannot open the store, in the words the opener raises
    problems: List[str]


def inspect_store(root) -> StoreCheck:
    """Can ``root`` hold a result store, and does this build open the one there?

    The one test of a store path, run by
    :class:`~repro.store.store.ResultStore` before it creates anything, by
    the job queue, and by ``repro validate --store`` (which prints the
    problems as warnings).  It reads ``store.json`` and the index schema
    version and creates and alters nothing.  A path that can never hold a
    store — a regular file, a non-empty directory without ``store.json``,
    a location nobody can write, a ``store.json`` naming a removed index
    backend — raises :class:`StoreError`.
    """
    root = Path(root)
    meta_path = root / "store.json"
    if root.exists() and not root.is_dir():
        raise StoreError(f"store path {root} exists and is not a directory")
    if not meta_path.exists():
        if root.exists() and any(root.iterdir()):
            raise StoreError(
                f"{root} exists and is not a result store (no store.json); "
                f"refusing to adopt a non-empty directory"
            )
        ancestor = root.absolute()
        while not ancestor.exists():
            ancestor = ancestor.parent
        if not ancestor.is_dir() or not os.access(ancestor, os.W_OK):
            raise StoreError(
                f"store path {root} is not writable ({ancestor} is not a writable directory)"
            )
        return StoreCheck(None, None, [])
    meta = json.loads(meta_path.read_text())
    backend = str(meta.get("backend", INDEX_BACKEND))
    if backend != INDEX_BACKEND:
        raise StoreError(
            f"store {root} uses index backend {backend!r}, which was removed in "
            f"1.8.0 ({INDEX_BACKEND} is the only run index); open it with "
            f"repro < 1.8 and re-add its runs to a new store"
        )
    problems = [
        version_problem(
            "store_version", int(meta.get("store_version", 0)), STORE_VERSION, STORE_WRITTEN_BY
        )
    ]
    version: Optional[int] = None
    sqlite_path = root / INDEX_FILENAME
    if sqlite_path.exists():
        # connect_sqlite, not a raw sqlite3.connect: even this read-only
        # peek must honor WAL mode and the busy timeout, or it races the
        # 4-process write hammer straight into SQLITE_BUSY
        conn = connect_sqlite(sqlite_path)
        try:
            version = schema_version(conn)
        finally:
            conn.close()
        if version:  # 0: an index no opener has initialized yet
            problems.append(
                version_problem(
                    "index schema version", version, SCHEMA_VERSION, SCHEMA_WRITTEN_BY
                )
            )
    return StoreCheck(
        meta, version, [f"store {root} has {problem}" for problem in problems if problem]
    )
