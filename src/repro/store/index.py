"""The queryable run index: one row (a :class:`~repro.store.query.StoredRun`) per run.

A single ``index.sqlite`` file whose schema :mod:`repro.store.schema`
creates and versions; dotted-key filters run in SQL against the
flattened ``config_kv`` table.  The job queue (:mod:`repro.serve.queue`)
lives in the same database, which is why every parallel sweep and the
job service can share one study directory.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Any, List, Mapping, Optional

from repro.api.config import SimulationConfig
from repro.store.common import (
    canonical_json,
    connect_sqlite,
    flatten_dotted,
    run_immediate,
)
from repro.store.query import StoredRun
from repro.store.schema import ensure_schema

#: the row's JSON text columns, stored as ``<field>_json``
_JSON_FIELDS = ("config", "overrides", "fft", "parallel")

#: ``runs`` columns in :class:`StoredRun` field order (the DDL's order)
COLUMNS = tuple(
    f"{f.name}_json" if f.name in _JSON_FIELDS else f.name for f in fields(StoredRun)
)


def _encode(name: str, value: Any) -> Any:
    if name not in _JSON_FIELDS or value is None:
        return value
    return canonical_json(value.to_dict() if name == "config" else value)


def _decode(name: str, value: Any) -> Any:
    if name not in _JSON_FIELDS or value is None:
        return value
    value = json.loads(value)
    return SimulationConfig.from_dict(value) if name == "config" else value


def _run_from(record) -> StoredRun:
    return StoredRun(*(_decode(f.name, v) for f, v in zip(fields(StoredRun), record)))


class SqliteRunIndex:
    """SQLite-backed run index."""

    filename = "index.sqlite"

    def __init__(self, root) -> None:
        self.path = Path(root) / self.filename
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # WAL + busy_timeout: the job server's worker processes all write
        # results into one store, so the index must tolerate concurrent
        # writers (and reads from helper threads) without SQLITE_BUSY
        # surfacing as data loss
        self._conn = connect_sqlite(self.path)
        ensure_schema(self._conn, self.path)

    def close(self) -> None:
        self._conn.close()

    # -- writes --------------------------------------------------------------
    def upsert(self, run: StoredRun) -> None:
        run_immediate(self._conn, lambda conn: self._upsert_locked(conn, run))

    def _upsert_locked(self, conn, run: StoredRun) -> None:
        conn.execute(
            f"INSERT OR REPLACE INTO runs ({', '.join(COLUMNS)}) "
            f"VALUES ({', '.join('?' * len(COLUMNS))})",
            [_encode(f.name, getattr(run, f.name)) for f in fields(StoredRun)],
        )
        conn.execute("DELETE FROM config_kv WHERE run_id = ?", (run.run_id,))
        conn.executemany(
            "INSERT INTO config_kv (run_id, key, value) VALUES (?, ?, ?)",
            [
                (run.run_id, key, canonical_json(value))
                for key, value in flatten_dotted(run.config.to_dict()).items()
            ],
        )

    # -- reads ---------------------------------------------------------------
    def get(self, run_id: str) -> Optional[StoredRun]:
        record = self._conn.execute(
            f"SELECT {', '.join(COLUMNS)} FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        return _run_from(record) if record else None

    def find_by_config(self, config_hash: str) -> Optional[StoredRun]:
        record = self._conn.execute(
            f"SELECT {', '.join(COLUMNS)} FROM runs WHERE config_hash = ? "
            f"ORDER BY updated DESC LIMIT 1",
            (config_hash,),
        ).fetchone()
        return _run_from(record) if record else None

    def rows(
        self,
        status: Optional[str] = None,
        where: Optional[Mapping[str, Any]] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[StoredRun]:
        sql = f"SELECT {', '.join('runs.' + col for col in COLUMNS)} FROM runs"
        clauses: List[str] = []
        params: List[Any] = []
        for i, (key, value) in enumerate(dict(where or {}).items()):
            alias = f"kv{i}"
            sql += (
                f" JOIN config_kv AS {alias} ON {alias}.run_id = runs.run_id"
                f" AND {alias}.key = ? AND {alias}.value = ?"
            )
            params += [key, canonical_json(value)]
        if status is not None:
            clauses.append("runs.status = ?")
            params.append(status)
        if since is not None:
            clauses.append("runs.created >= ?")
            params.append(float(since))
        if until is not None:
            clauses.append("runs.created <= ?")
            params.append(float(until))
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY runs.created, runs.run_id"
        if limit is not None or offset:
            # sqlite treats LIMIT -1 as "no limit", which is exactly the
            # offset-without-limit paging case
            sql += " LIMIT ? OFFSET ?"
            params += [-1 if limit is None else int(limit), int(offset)]
        return [_run_from(rec) for rec in self._conn.execute(sql, params)]

    def count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])
