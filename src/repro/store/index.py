"""The queryable run index: one row (a plain dict) per run.

A single ``index.sqlite`` file whose schema :mod:`repro.store.schema`
creates and versions; dotted-key filters run in SQL against the
flattened ``config_kv`` table.  The job queue (:mod:`repro.serve.queue`)
lives in the same database, which is why every parallel sweep and the
job service can share one study directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from repro.store.common import (
    StoreError,
    canonical_json,
    connect_sqlite,
    flatten_dotted,
    run_immediate,
)
from repro.store.schema import ensure_schema

#: row keys the index stores and returns
ROW_KEYS = (
    "run_id",
    "config_hash",
    "gs_address",
    "status",
    "error",
    "created",
    "updated",
    "elapsed",
    "n_times",
    "config",
    "overrides",
    "fft",
    "parallel",
)


def _normalize_row(row: Mapping[str, Any]) -> Dict[str, Any]:
    out = {key: row.get(key) for key in ROW_KEYS}
    if out["run_id"] is None or out["config_hash"] is None or out["status"] is None:
        raise StoreError(f"index row needs run_id/config_hash/status, got {dict(row)!r}")
    out["config"] = dict(out["config"] or {})
    out["overrides"] = dict(out["overrides"] or {})
    out["elapsed"] = float(out["elapsed"] or 0.0)
    out["n_times"] = int(out["n_times"] or 0)
    return out


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
        self.schema_version = ensure_schema(self._conn, self.path)

    def close(self) -> None:
        self._conn.close()

    # -- writes --------------------------------------------------------------
    def upsert(self, row: Mapping[str, Any]) -> None:
        r = _normalize_row(row)
        run_immediate(self._conn, lambda conn: self._upsert_locked(conn, r))

    def _upsert_locked(self, conn, r: Dict[str, Any]) -> None:
        conn.execute(
            """
            INSERT OR REPLACE INTO runs (
                run_id, config_hash, gs_address, status, error, created,
                updated, elapsed, n_times, config_json, overrides_json,
                fft_json, parallel_json
            ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            (
                r["run_id"],
                r["config_hash"],
                r["gs_address"],
                r["status"],
                r["error"],
                r["created"],
                r["updated"],
                r["elapsed"],
                r["n_times"],
                canonical_json(r["config"]),
                canonical_json(r["overrides"]),
                canonical_json(r["fft"]) if r["fft"] is not None else None,
                canonical_json(r["parallel"]) if r["parallel"] is not None else None,
            ),
        )
        conn.execute("DELETE FROM config_kv WHERE run_id = ?", (r["run_id"],))
        conn.executemany(
            "INSERT INTO config_kv (run_id, key, value) VALUES (?, ?, ?)",
            [
                (r["run_id"], key, canonical_json(value))
                for key, value in flatten_dotted(r["config"]).items()
            ],
        )

    def delete(self, run_id: str) -> None:
        def _delete(conn):
            conn.execute("DELETE FROM runs WHERE run_id = ?", (run_id,))
            conn.execute("DELETE FROM config_kv WHERE run_id = ?", (run_id,))

        run_immediate(self._conn, _delete)

    # -- reads ---------------------------------------------------------------
    _COLUMNS = (
        "run_id, config_hash, gs_address, status, error, created, updated, "
        "elapsed, n_times, config_json, overrides_json, fft_json, parallel_json"
    )

    def _row_from(self, record) -> Dict[str, Any]:
        (
            run_id, config_hash, gs_address, status, error, created, updated,
            elapsed, n_times, config_json, overrides_json, fft_json, parallel_json,
        ) = record
        return _normalize_row(
            {
                "run_id": run_id,
                "config_hash": config_hash,
                "gs_address": gs_address,
                "status": status,
                "error": error,
                "created": created,
                "updated": updated,
                "elapsed": elapsed,
                "n_times": n_times,
                "config": json.loads(config_json),
                "overrides": json.loads(overrides_json) if overrides_json else {},
                "fft": json.loads(fft_json) if fft_json else None,
                "parallel": json.loads(parallel_json) if parallel_json else None,
            }
        )

    def get(self, run_id: str) -> Optional[Dict[str, Any]]:
        record = self._conn.execute(
            f"SELECT {self._COLUMNS} FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        return self._row_from(record) if record else None

    def find_by_config(self, config_hash: str) -> Optional[Dict[str, Any]]:
        record = self._conn.execute(
            f"SELECT {self._COLUMNS} FROM runs WHERE config_hash = ? "
            f"ORDER BY updated DESC LIMIT 1",
            (config_hash,),
        ).fetchone()
        return self._row_from(record) if record else None

    def rows(
        self,
        status: Optional[str] = None,
        where: Optional[Mapping[str, Any]] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[Dict[str, Any]]:
        columns = ", ".join(
            f"runs.{col.strip()}" for col in self._COLUMNS.split(",")
        )
        sql = f"SELECT {columns} FROM runs"
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
        return [self._row_from(rec) for rec in self._conn.execute(sql, params)]

    def count(self) -> int:
        return int(self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])
