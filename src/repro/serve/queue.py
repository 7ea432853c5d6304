"""The durable job queue: rows in the store's own SQLite index.

Jobs live in the ``jobs`` table of the store's index schema (see
:mod:`repro.store.schema`), so the queue inherits everything the store
already guarantees: schema versioning, WAL-mode concurrent access, and
durability — a server restart finds its queued and running jobs exactly
where it left them.

Every state transition is one ``BEGIN IMMEDIATE`` transaction
(:func:`repro.store.common.run_immediate`), which is what makes the
queue safe to drive from many processes at once: two workers racing to
claim the same job serialize on the database write lock, and exactly one
of them wins.

Attempt accounting is claim-side: ``attempts`` increments when a worker
*takes* a job, not when it fails — so a worker that dies without ever
reporting back (SIGKILL, OOM) still consumed one attempt, and a
crash-looping job cannot retry forever.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.api.config import SimulationConfig
from repro.store.common import (
    StoreError,
    canonical_json,
    config_hash,
    connect_sqlite,
    run_immediate,
    utc_now,
)
from repro.store.schema import ensure_schema
from repro.store.store import inspect_store

#: every state a job row can be in
JOB_STATUSES = ("queued", "running", "ok", "error", "cancelled")

#: states a job can never leave on its own
TERMINAL_STATUSES = ("ok", "error", "cancelled")

_JOB_COLUMNS = (
    "job_id, config_hash, config_json, status, error, run_id, worker, "
    "attempts, max_attempts, timeout, created, updated, started, finished, "
    "deadline, not_before, progress, message"
)


def job_id_for(config: SimulationConfig) -> str:
    """Deterministic job id: ``j`` + the config hash prefix.

    The same identity scheme as run ids — submitting one config twice
    addresses one job, which is what makes ``POST /jobs`` idempotent.
    """
    return "j" + config_hash(config)[:12]


class JobQueue:
    """Durable job/worker tables of one study's ``index.sqlite``.

    Each process (server, every worker) opens its *own* queue on the
    same store directory; cross-process safety comes from the database,
    the internal lock only serializes threads sharing one instance
    (the HTTP server's handler threads).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.path = self.root / "index.sqlite"
        check = inspect_store(self.root)
        if check.meta is None:
            raise StoreError(
                f"no result store at {self.root}; the job queue lives inside "
                f"a store's index — create one first (ResultStore or repro run --store)"
            )
        if check.problems:
            raise StoreError(check.problems[0])
        self._conn = connect_sqlite(self.path)
        ensure_schema(self._conn, self.path)
        self._lock = threading.RLock()

    def close(self) -> None:
        self._conn.close()

    def _txn(self, fn):
        with self._lock:
            return run_immediate(self._conn, fn)

    # -- row marshalling ------------------------------------------------------
    @staticmethod
    def _job_from(record) -> Dict[str, Any]:
        keys = [k.strip() for k in _JOB_COLUMNS.split(",")]
        return dict(zip(keys, record))

    # -- submission -----------------------------------------------------------
    def submit(
        self,
        config: SimulationConfig,
        max_attempts: int = 3,
        timeout: float = 0.0,
        run_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Enqueue a config; idempotent by content hash.

        An existing job for the same config is returned as-is when it is
        queued, running, or done (``ok``); a failed or cancelled job is
        re-armed with a fresh attempt budget.  ``run_id`` (when the
        store already holds a completed run for this config) records the
        job as ``ok`` immediately — the cache-hit fast path.
        """
        job_id = job_id_for(config)
        chash = config_hash(config)
        cjson = canonical_json(config.to_dict())
        now = utc_now()

        def _submit(conn):
            record = conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            if record is not None:
                job = self._job_from(record)
                if job["status"] not in ("error", "cancelled"):
                    return job
                # failed/cancelled: a resubmission is a fresh request —
                # re-arm with a clean attempt budget and error slate
                conn.execute(
                    "UPDATE jobs SET status = 'queued', error = NULL, "
                    "worker = NULL, attempts = 0, max_attempts = ?, "
                    "timeout = ?, updated = ?, started = NULL, "
                    "finished = NULL, deadline = NULL, not_before = 0.0, "
                    "progress = 0.0, message = NULL WHERE job_id = ?",
                    (int(max_attempts), float(timeout), now, job_id),
                )
            else:
                status = "ok" if run_id is not None else "queued"
                conn.execute(
                    "INSERT INTO jobs (job_id, config_hash, config_json, "
                    "status, run_id, attempts, max_attempts, timeout, "
                    "created, updated, finished, progress, message) "
                    "VALUES (?, ?, ?, ?, ?, 0, ?, ?, ?, ?, ?, ?, ?)",
                    (
                        job_id,
                        chash,
                        cjson,
                        status,
                        run_id,
                        int(max_attempts),
                        float(timeout),
                        now,
                        now,
                        now if run_id is not None else None,
                        1.0 if run_id is not None else 0.0,
                        "cached" if run_id is not None else None,
                    ),
                )
            rec = conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            return self._job_from(rec)

        return self._txn(_submit)

    # -- worker side ----------------------------------------------------------
    def claim(self, worker_id: str) -> Optional[Dict[str, Any]]:
        """Atomically take the oldest runnable job (or ``None``).

        Runnable means ``queued`` with its retry backoff (``not_before``)
        elapsed.  The claim itself consumes one attempt and starts the
        per-job deadline clock when the job has a timeout.
        """
        now = utc_now()

        def _claim(conn):
            record = conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE status = 'queued' "
                f"AND not_before <= ? ORDER BY created, job_id LIMIT 1",
                (now,),
            ).fetchone()
            if record is None:
                return None
            job = self._job_from(record)
            attempt = int(job["attempts"]) + 1
            deadline = now + job["timeout"] if job["timeout"] > 0 else None
            conn.execute(
                "UPDATE jobs SET status = 'running', worker = ?, attempts = ?, "
                "updated = ?, started = ?, deadline = ?, progress = 0.0, "
                "message = NULL WHERE job_id = ?",
                (worker_id, attempt, now, now, deadline, job["job_id"]),
            )
            conn.execute(
                "INSERT OR REPLACE INTO job_attempts "
                "(job_id, attempt, worker, started) VALUES (?, ?, ?, ?)",
                (job["job_id"], attempt, worker_id, now),
            )
            conn.execute(
                "UPDATE workers SET state = 'busy', job_id = ?, heartbeat = ? "
                "WHERE worker_id = ?",
                (job["job_id"], now, worker_id),
            )
            job.update(
                status="running", worker=worker_id, attempts=attempt,
                started=now, updated=now, deadline=deadline, progress=0.0,
            )
            return job

        return self._txn(_claim)

    def progress(self, job_id: str, fraction: float, message: Optional[str] = None) -> None:
        """Publish live progress (``0.0``–``1.0``) for a running job."""
        now = utc_now()
        self._txn(
            lambda conn: conn.execute(
                "UPDATE jobs SET progress = ?, message = ?, updated = ? "
                "WHERE job_id = ? AND status = 'running'",
                (max(0.0, min(1.0, float(fraction))), message, now, job_id),
            )
        )

    def finish_ok(self, job_id: str, run_id: str) -> None:
        """Mark a job done, pointing at its stored run."""
        now = utc_now()

        def _ok(conn):
            # status-guarded: a job cancelled mid-run stays cancelled even
            # if its worker finishes before the supervisor kills it
            conn.execute(
                "UPDATE jobs SET status = 'ok', run_id = ?, error = NULL, "
                "updated = ?, finished = ?, deadline = NULL, progress = 1.0 "
                "WHERE job_id = ? AND status = 'running'",
                (run_id, now, now, job_id),
            )
            conn.execute(
                "UPDATE job_attempts SET finished = ?, outcome = 'ok' "
                "WHERE job_id = ? AND attempt = "
                "(SELECT attempts FROM jobs WHERE job_id = ?)",
                (now, job_id, job_id),
            )

        self._txn(_ok)

    def fail_attempt(
        self, job_id: str, error: str, backoff: float = 0.5,
        outcome: str = "error",
    ) -> Dict[str, Any]:
        """Record a failed attempt: requeue with backoff, or give up.

        Used for execution errors, per-job timeouts, *and* worker deaths
        — all three consumed the attempt at claim time.  The job lands
        in ``error`` once its attempt budget is spent, otherwise goes
        back to ``queued`` with an exponentially growing ``not_before``.
        """
        now = utc_now()

        def _fail(conn):
            record = conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            if record is None:
                raise StoreError(f"queue has no job {job_id!r}")
            job = self._job_from(record)
            if job["status"] != "running":
                return job  # cancelled (or already resolved) meanwhile
            attempt = int(job["attempts"])
            exhausted = attempt >= int(job["max_attempts"])
            if exhausted:
                conn.execute(
                    "UPDATE jobs SET status = 'error', error = ?, updated = ?, "
                    "finished = ?, worker = NULL, deadline = NULL "
                    "WHERE job_id = ?",
                    (str(error), now, now, job_id),
                )
            else:
                not_before = now + float(backoff) * (2 ** max(0, attempt - 1))
                conn.execute(
                    "UPDATE jobs SET status = 'queued', error = ?, updated = ?, "
                    "worker = NULL, deadline = NULL, not_before = ?, "
                    "progress = 0.0 WHERE job_id = ?",
                    (str(error), now, not_before, job_id),
                )
            conn.execute(
                "UPDATE job_attempts SET finished = ?, outcome = ?, error = ? "
                "WHERE job_id = ? AND attempt = ?",
                (now, outcome, str(error), job_id, attempt),
            )
            rec = conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            return self._job_from(rec)

        return self._txn(_fail)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a job; returns the row *before* the transition.

        The prior status tells the caller whether a worker is still
        executing it (the service then kills that worker); cancelling a
        terminal job is a no-op.
        """
        now = utc_now()

        def _cancel(conn):
            record = conn.execute(
                f"SELECT {_JOB_COLUMNS} FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
            if record is None:
                raise StoreError(f"queue has no job {job_id!r}")
            job = self._job_from(record)
            if job["status"] not in TERMINAL_STATUSES:
                conn.execute(
                    "UPDATE jobs SET status = 'cancelled', updated = ?, "
                    "finished = ?, deadline = NULL WHERE job_id = ?",
                    (now, now, job_id),
                )
            return job

        return self._txn(_cancel)

    # -- recovery / supervision ----------------------------------------------
    def recover(self, alive: Sequence[str] = ()) -> int:
        """Requeue every ``running`` job whose worker is not one of ``alive``.

        A booting server passes nothing (the workers of its last life are
        all gone); a batch beside other pools passes the ids of the
        workers that still live, and forgets the rest.  Attempts already
        consumed stay consumed; the interrupted attempt is closed in the
        history so a post-mortem can see it.
        """
        now = utc_now()
        alive = list(alive)
        gone = f"NOT IN ({', '.join('?' * len(alive))})"

        def _recover(conn):
            rows = conn.execute(
                "SELECT job_id, attempts FROM jobs WHERE status = 'running' "
                f"AND (worker IS NULL OR worker {gone})",
                alive,
            ).fetchall()
            for job_id, attempt in rows:
                conn.execute(
                    "UPDATE jobs SET status = 'queued', worker = NULL, "
                    "deadline = NULL, not_before = 0.0, progress = 0.0, "
                    "updated = ? WHERE job_id = ?",
                    (now, job_id),
                )
                conn.execute(
                    "UPDATE job_attempts SET finished = ?, "
                    "outcome = 'interrupted' WHERE job_id = ? AND attempt = ?",
                    (now, job_id, attempt),
                )
            conn.execute(f"DELETE FROM workers WHERE worker_id {gone}", alive)
            return len(rows)

        return self._txn(_recover)

    def running_for(self, worker_id: str) -> List[Dict[str, Any]]:
        """Jobs currently claimed by one worker (0 or 1 in practice)."""
        records = self._conn.execute(
            f"SELECT {_JOB_COLUMNS} FROM jobs WHERE status = 'running' "
            f"AND worker = ?",
            (worker_id,),
        ).fetchall()
        return [self._job_from(r) for r in records]

    def expired(self) -> List[Dict[str, Any]]:
        """Running jobs past their deadline (the supervisor kills these)."""
        now = utc_now()
        records = self._conn.execute(
            f"SELECT {_JOB_COLUMNS} FROM jobs WHERE status = 'running' "
            f"AND deadline IS NOT NULL AND deadline < ?",
            (now,),
        ).fetchall()
        return [self._job_from(r) for r in records]

    # -- worker registry ------------------------------------------------------
    def register_worker(self, worker_id: str, pid: int) -> None:
        now = utc_now()
        self._txn(
            lambda conn: conn.execute(
                "INSERT OR REPLACE INTO workers "
                "(worker_id, pid, started, heartbeat, state, job_id) "
                "VALUES (?, ?, ?, ?, 'idle', NULL)",
                (worker_id, int(pid), now, now),
            )
        )

    def heartbeat(self, worker_id: str, state: str = "idle", job_id: Optional[str] = None) -> None:
        now = utc_now()
        self._txn(
            lambda conn: conn.execute(
                "UPDATE workers SET heartbeat = ?, state = ?, job_id = ? "
                "WHERE worker_id = ?",
                (now, state, job_id, worker_id),
            )
        )

    def remove_worker(self, worker_id: str) -> None:
        self._txn(
            lambda conn: conn.execute(
                "DELETE FROM workers WHERE worker_id = ?", (worker_id,)
            )
        )

    def workers(self) -> List[Dict[str, Any]]:
        records = self._conn.execute(
            "SELECT worker_id, pid, started, heartbeat, state, job_id "
            "FROM workers ORDER BY worker_id"
        ).fetchall()
        keys = ("worker_id", "pid", "started", "heartbeat", "state", "job_id")
        return [dict(zip(keys, r)) for r in records]

    # -- queries --------------------------------------------------------------
    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        record = self._conn.execute(
            f"SELECT {_JOB_COLUMNS} FROM jobs WHERE job_id = ?", (job_id,)
        ).fetchone()
        return self._job_from(record) if record else None

    def jobs(
        self, status: Optional[str] = None, limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[Dict[str, Any]]:
        sql = f"SELECT {_JOB_COLUMNS} FROM jobs"
        params: List[Any] = []
        if status is not None:
            if status not in JOB_STATUSES:
                raise StoreError(
                    f"unknown job status {status!r}; "
                    f"one of: {', '.join(JOB_STATUSES)}"
                )
            sql += " WHERE status = ?"
            params.append(status)
        sql += " ORDER BY created, job_id"
        if limit is not None or offset:
            sql += " LIMIT ? OFFSET ?"
            params += [-1 if limit is None else int(limit), int(offset)]
        return [self._job_from(r) for r in self._conn.execute(sql, params)]

    def attempts(self, job_id: str) -> List[Dict[str, Any]]:
        """Full attempt history of one job, oldest first."""
        records = self._conn.execute(
            "SELECT job_id, attempt, worker, started, finished, outcome, error "
            "FROM job_attempts WHERE job_id = ? ORDER BY attempt",
            (job_id,),
        ).fetchall()
        keys = ("job_id", "attempt", "worker", "started", "finished", "outcome", "error")
        return [dict(zip(keys, r)) for r in records]

    def counts(self) -> Dict[str, int]:
        """Jobs per status (all statuses present, zeros included)."""
        out = {status: 0 for status in JOB_STATUSES}
        for status, n in self._conn.execute(
            "SELECT status, COUNT(*) FROM jobs GROUP BY status"
        ):
            out[status] = int(n)
        return out


def job_config(job: Dict[str, Any]) -> SimulationConfig:
    """The :class:`SimulationConfig` a job row was submitted with."""
    return SimulationConfig.from_json(job["config_json"])

