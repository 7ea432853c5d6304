"""The one owner of a study's run rows: the durable job queue.

A run is one row of the ``jobs`` table in the store's ``index.sqlite``
(see :mod:`repro.store.schema`), read back as a
:class:`~repro.store.query.StoredRun`: the config as submitted, its
queue state and attempt history, and once it is ``ok`` its result's
accounting.  Every way a run is made walks the same rows — a service
worker or a sweep's drain claims a submitted row, a stored run of
``Simulation.run(store=)`` / ``repro run --store`` begins its own, and
:meth:`~repro.store.store.ResultStore.add_run` finishes either — so
every stored run has an attempt, a worker and a history.  This module
is the only one that issues SQL against these tables.

Every state transition is one ``BEGIN IMMEDIATE`` transaction
(:func:`repro.store.common.run_immediate`), which is what makes the
queue safe to drive from many processes at once: two workers racing to
claim the same job serialize on the database write lock, and exactly one
of them wins.  The states are ``queued``, ``running``, ``ok``,
``error`` and ``cancelled``; a cancel wins over a finish.

Attempt accounting is claim-side: ``attempts`` increments when a worker
*takes* a job, not when it fails — so a worker that dies without ever
reporting back (SIGKILL, OOM) still consumed one attempt, and a
crash-looping job cannot retry forever.  ``attempts`` is the number of
the row's ``job_attempts`` rows and never exceeds ``max_attempts``.

A worker is alive while it holds its lock, ``workers/<worker_id>.lock``
in the store (:mod:`repro.store.lease`), from before any row names it
until that row is final; its state is the ``running`` row naming it.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.api.config import SimulationConfig
from repro.store.common import (
    StoreError,
    canonical_json,
    config_hash,
    connect_sqlite,
    flatten_dotted,
    run_id_for,
    run_immediate,
    utc_now,
)
from repro.store.lease import exclusive, held
from repro.store.query import StoredRun
from repro.store.schema import INDEX_FILENAME, ensure_schema, inspect_store
from repro.trace import traced

#: every state a row can be in
JOB_STATUSES = ("queued", "running", "ok", "error", "cancelled")

#: states a job can never leave on its own
TERMINAL_STATUSES = ("ok", "error", "cancelled")

#: the row's JSON text columns, stored as ``<field>_json``
_JSON_FIELDS = ("overrides", "fft", "parallel")

#: ``jobs`` columns in :class:`StoredRun` field order (the DDL's order)
COLUMNS = tuple(
    f"{f.name}_json" if f.name in _JSON_FIELDS else f.name for f in fields(StoredRun)
)

_SELECT = f"SELECT {', '.join(COLUMNS)} FROM jobs"

_REGISTER = "INSERT OR REPLACE INTO workers (worker_id, pid, started) VALUES (?, ?, ?)"


def _decode(name: str, value: Any) -> Any:
    return json.loads(value) if name in _JSON_FIELDS and value is not None else value


def _row(record) -> StoredRun:
    return StoredRun(*(_decode(f.name, v) for f, v in zip(fields(StoredRun), record)))


def _json(value: Optional[Mapping[str, Any]]) -> Optional[str]:
    return None if value is None else canonical_json(dict(value))


def own_worker_id() -> str:
    """The worker name of a stored run this thread records itself."""
    return f"p{os.getpid()}t{threading.get_native_id()}run"


class JobQueue:
    """Durable run/job/worker tables of one study's ``index.sqlite``.

    Each process (server, every worker) opens its *own* queue on the
    same store directory; cross-process safety comes from the database,
    the internal lock only serializes threads sharing one instance
    (the HTTP server's handler threads).
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.path = self.root / INDEX_FILENAME
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

    def _read(self, sql: str, params: Sequence[Any] = ()) -> List[Any]:
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    def _rows(self, where: str, params: Sequence[Any]) -> List[StoredRun]:
        return [_row(r) for r in self._read(f"{_SELECT} WHERE {where}", params)]

    def _write(self, sql: str, params: Sequence[Any]) -> None:
        self._txn(lambda conn: conn.execute(sql, params))

    @staticmethod
    def _get(conn, run_id: str) -> Optional[StoredRun]:
        record = conn.execute(f"{_SELECT} WHERE run_id = ?", (run_id,)).fetchone()
        return _row(record) if record else None

    @staticmethod
    def _insert(
        conn, config: SimulationConfig, overrides, now: float,
        max_attempts: int = 1, timeout: float = 0.0,
    ) -> Tuple[str, bool]:
        """Add a ``queued`` row for ``config`` unless it has one: ``(id, inserted)``."""
        run_id = run_id_for(config)
        data = config.to_dict()
        inserted = conn.execute(
            "INSERT OR IGNORE INTO jobs (run_id, config_hash, status, max_attempts, "
            "timeout, created, updated, config_json, overrides_json) "
            "VALUES (?, ?, 'queued', ?, ?, ?, ?, ?, ?)",
            (
                run_id, config_hash(config), int(max_attempts), float(timeout),
                now, now, canonical_json(data), _json(overrides or {}),
            ),
        ).rowcount
        if inserted:
            conn.executemany(
                "INSERT INTO config_kv (run_id, key, value) VALUES (?, ?, ?)",
                [(run_id, key, canonical_json(v)) for key, v in flatten_dotted(data).items()],
            )
        return run_id, bool(inserted)

    @staticmethod
    def _start_attempt(conn, run_id: str, worker_id: str, now: float) -> None:
        """The row turns ``running`` on ``worker_id``'s next attempt."""
        conn.execute(
            "UPDATE jobs SET status = 'running', worker = ?, attempts = attempts + 1, "
            "max_attempts = MAX(max_attempts, attempts + 1), updated = ?, started = ?, "
            "finished = NULL, deadline = CASE WHEN timeout > 0 THEN ? + timeout END, "
            "progress = 0.0, message = NULL WHERE run_id = ?",
            (worker_id, now, now, now, run_id),
        )
        conn.execute(
            "INSERT INTO job_attempts (run_id, attempt, worker, started) "
            "SELECT run_id, attempts, worker, started FROM jobs WHERE run_id = ?",
            (run_id,),
        )

    @staticmethod
    def _close_open(conn, run_id: str, now: float, outcome: str, error: Optional[str] = None) -> None:
        """The row's open attempt, if any, closes with ``outcome``: the one
        way an attempt ends (a closed one is never rewritten, and
        :meth:`open_on` no longer names it)."""
        conn.execute(
            "UPDATE job_attempts SET finished = ?, outcome = ?, error = ? WHERE run_id = ? "
            "AND attempt = (SELECT attempts FROM jobs WHERE run_id = ?) AND finished IS NULL",
            (now, outcome, error, run_id, run_id),
        )

    # -- submission -----------------------------------------------------------
    @traced("serve.queue.submit")
    def submit(
        self,
        config: SimulationConfig,
        max_attempts: int = 3,
        timeout: float = 0.0,
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[StoredRun, bool]:
        """Enqueue a config; idempotent by content hash.  ``(row, created)``.

        An existing row for the same config is returned as-is when it is
        queued, running, or done (``ok``: the stored run is the cache
        hit); a failed or cancelled one is re-armed as a fresh request —
        a clean attempt budget and history, and ``created`` now.
        ``created`` says whether this call inserted or re-armed the row.
        ``overrides`` labels a new or re-armed row (a sweep's variant).
        """
        now = utc_now()

        def _submit(conn):
            run_id, inserted = self._insert(
                conn, config, overrides, now, max_attempts=max_attempts, timeout=timeout
            )
            row = self._get(conn, run_id)
            if inserted or row.status not in ("error", "cancelled"):
                return row, inserted
            conn.execute("DELETE FROM job_attempts WHERE run_id = ?", (run_id,))
            conn.execute(
                "UPDATE jobs SET status = 'queued', error = NULL, worker = NULL, "
                "attempts = 0, max_attempts = ?, timeout = ?, created = ?, "
                "updated = ?, started = NULL, finished = NULL, deadline = NULL, "
                "not_before = 0.0, progress = 0.0, message = NULL, "
                "overrides_json = COALESCE(?, overrides_json) WHERE run_id = ?",
                (int(max_attempts), float(timeout), now, now, _json(overrides), run_id),
            )
            return self._get(conn, run_id), True

        return self._txn(_submit)

    # -- worker side ----------------------------------------------------------
    def claim(self, worker_id: str) -> Optional[StoredRun]:
        """Atomically take the oldest runnable job (or ``None``).

        Runnable means ``queued`` with its retry backoff (``not_before``)
        elapsed.  The claim itself consumes one attempt and starts the
        per-job deadline clock when the job has a timeout.
        """
        now = utc_now()

        def _claim(conn):
            record = conn.execute(
                "SELECT run_id FROM jobs WHERE status = 'queued' AND not_before <= ? "
                "ORDER BY created, run_id LIMIT 1",
                (now,),
            ).fetchone()
            if record is None:
                return None
            self._start_attempt(conn, record[0], worker_id, now)
            return self._get(conn, record[0])

        return self._txn(_claim)

    def begin(self, config: SimulationConfig) -> StoredRun:
        """A stored run takes its row: ``running`` on this thread's worker.

        The worker (:func:`own_worker_id`) is registered with this pid;
        called bare, without its lock (:meth:`recording`), it leaves the
        row a killed run leaves, which :meth:`recover` requeues.  The
        row is created when missing and taken from whatever state it is
        in — the caller is about to compute it — with one more attempt
        (a killed run's open one closes ``interrupted``, as in :meth:`recover`);
        ``max_attempts`` grows to allow it when the budget is spent, so
        this attempt is the last.  An ``ok`` row is left as it is until
        the new result lands (:meth:`finish_ok` then records the
        attempt), so a re-run that fails or is killed leaves the stored
        run readable.  Unlike :meth:`claim`, it takes this config's row.
        """
        now = utc_now()

        def _begin(conn):
            run_id, _ = self._insert(conn, config, None, now)
            if self._get(conn, run_id).status != "ok":
                conn.execute(_REGISTER, (own_worker_id(), os.getpid(), now))
                self._close_open(conn, run_id, now, "interrupted")
                self._start_attempt(conn, run_id, own_worker_id(), now)
            return self._get(conn, run_id)

        return self._txn(_begin)

    @contextlib.contextmanager
    def recording(self, config: SimulationConfig) -> Iterator[StoredRun]:
        """The body computes ``config``'s stored run, recorded on its row.

        The worker's lock is held throughout.  :meth:`begin` on entry;
        the body finishes the row when it stores the result
        (:meth:`finish_ok`), an exception fails the attempt before it
        propagates, and the worker's registration goes either way.  An
        ``ok`` row is not begun, so nothing here touches it.
        """
        with self._alive_as(own_worker_id()):
            row = self.begin(config)
            if row.status != "running":
                yield row
                return
            try:
                yield row
            except BaseException as exc:
                self.fail_attempt(row.run_id, f"{type(exc).__name__}: {exc}")
                raise
            finally:
                self.remove_worker(row.worker)

    def progress(self, job_id: str, fraction: float, message: Optional[str] = None) -> None:
        """Publish live progress (``0.0``–``1.0``) for a running job."""
        self._write(
            "UPDATE jobs SET progress = ?, message = ?, updated = ? "
            "WHERE run_id = ? AND status = 'running'",
            (max(0.0, min(1.0, float(fraction))), message, utc_now(), job_id),
        )

    def finish_ok(
        self,
        config: SimulationConfig,
        *,
        overrides: Optional[Mapping[str, Any]] = None,
        gs_address: Optional[str] = None,
        elapsed: float = 0.0,
        n_times: int = 0,
        fft: Optional[Mapping[str, Any]] = None,
        parallel: Optional[Mapping[str, Any]] = None,
    ) -> StoredRun:
        """The config's run is stored: its row turns ``ok`` with these columns.

        A ``running`` row closes its current attempt.  A row nobody began
        (a result added on its own; a re-run of an ``ok`` row) gets one
        attempt, begun and finished here.  A ``cancelled`` row stays
        cancelled: a worker that raced past the cancel cannot resurrect
        the job; its attempt closes ``cancelled``.
        """
        now = utc_now()

        def _ok(conn):
            run_id, _ = self._insert(conn, config, overrides, now)
            row = self._get(conn, run_id)
            if row.status == "cancelled":
                self._close_open(conn, run_id, now, "cancelled")
                return row
            if row.status != "running":
                self._start_attempt(conn, run_id, own_worker_id(), now)
            conn.execute(
                "UPDATE jobs SET status = 'ok', error = NULL, updated = ?, finished = ?, "
                "deadline = NULL, progress = 1.0, gs_address = ?, elapsed = ?, "
                "n_times = ?, fft_json = ?, parallel_json = ?, "
                "overrides_json = COALESCE(?, overrides_json) WHERE run_id = ?",
                (
                    now, now, gs_address, float(elapsed), int(n_times), _json(fft),
                    _json(parallel), _json(overrides), run_id,
                ),
            )
            self._close_open(conn, run_id, now, "ok")
            return self._get(conn, run_id)

        return self._txn(_ok)

    def fail_attempt(
        self, job_id: str, error: str, backoff: float = 0.5,
        outcome: str = "error",
    ) -> StoredRun:
        """Record a failed attempt: requeue with backoff, or give up.

        Used for execution errors, per-job timeouts, *and* worker deaths
        — all three consumed the attempt at claim time.  The job lands
        in ``error`` once its attempt budget is spent, otherwise goes
        back to ``queued`` with an exponentially growing ``not_before``.
        A job cancelled meanwhile stays cancelled, its attempt closed
        ``cancelled``.
        """
        now = utc_now()

        def _fail(conn):
            job = self._get(conn, job_id)
            if job is None:
                raise StoreError(f"queue has no job {job_id!r}")
            if job.status == "cancelled":
                self._close_open(conn, job_id, now, "cancelled")
            if job.status != "running":
                return job  # cancelled (or already resolved) meanwhile
            if job.attempts >= job.max_attempts:
                conn.execute(
                    "UPDATE jobs SET status = 'error', error = ?, updated = ?, "
                    "finished = ?, worker = NULL, deadline = NULL WHERE run_id = ?",
                    (str(error), now, now, job_id),
                )
            else:
                not_before = now + float(backoff) * (2 ** max(0, job.attempts - 1))
                conn.execute(
                    "UPDATE jobs SET status = 'queued', error = ?, updated = ?, "
                    "worker = NULL, deadline = NULL, not_before = ?, "
                    "progress = 0.0 WHERE run_id = ?",
                    (str(error), now, not_before, job_id),
                )
            self._close_open(conn, job_id, now, outcome, str(error))
            return self._get(conn, job_id)

        return self._txn(_fail)

    def cancel(self, job_id: str) -> StoredRun:
        """Cancel a job; returns the row *before* the transition.

        The prior status tells the caller whether a worker is still
        executing it (the service then kills that worker); cancelling a
        terminal job is a no-op.
        """
        now = utc_now()

        def _cancel(conn):
            job = self._get(conn, job_id)
            if job is None:
                raise StoreError(f"queue has no job {job_id!r}")
            if job.status not in TERMINAL_STATUSES:
                conn.execute(
                    "UPDATE jobs SET status = 'cancelled', updated = ?, "
                    "finished = ?, deadline = NULL WHERE run_id = ?",
                    (now, now, job_id),
                )
            return job

        return self._txn(_cancel)

    # -- recovery / supervision ----------------------------------------------
    def recover(self, keep: Sequence[str] = ()) -> int:
        """Requeue every ``running`` job whose worker is gone; how many.

        A worker lives when it is one of ``keep`` (a supervisor's own,
        which it reaps itself) or holds its lock
        (:func:`~repro.store.lease.held`); the others' registrations and
        lock files are forgotten.  Attempts already consumed stay
        consumed; the interrupted attempt is closed in the history so a
        post-mortem can see it.
        """
        now = utc_now()

        def _gone(conn):
            """The running rows whose worker is gone, and the dead registrations."""
            running = conn.execute("SELECT run_id, worker FROM jobs WHERE status = 'running'").fetchall()
            registered = [w for (w,) in conn.execute("SELECT worker_id FROM workers")]
            workers = {worker for _, worker in running}.union(registered)
            dead = {w for w in workers if w not in keep and not held(self._lock_file(w))}
            orphans = [job_id for job_id, worker in running if worker in dead]
            return orphans, [w for w in registered if w in dead]

        def _recover(conn):
            orphans, dead = _gone(conn)
            for job_id in orphans:
                conn.execute(
                    "UPDATE jobs SET status = 'queued', worker = NULL, "
                    "deadline = NULL, not_before = 0.0, progress = 0.0, "
                    "updated = ? WHERE run_id = ?",
                    (now, job_id),
                )
                self._close_open(conn, job_id, now, "interrupted")
            conn.executemany("DELETE FROM workers WHERE worker_id = ?", [(w,) for w in dead])
            return len(orphans)

        with self._lock:
            # a supervisor asks a few times a second: take the write lock
            # only when there is something to requeue or forget
            if not any(_gone(self._conn)):
                return 0
        return self._txn(_recover)

    def open_on(self, workers: Sequence[str]) -> List[StoredRun]:
        """The jobs one of ``workers`` is on: the row names it and its
        attempt is open (not the whole history) — ``running``, or
        cancelled under it."""
        marks = ", ".join("?" * len(workers))
        return self._rows(
            f"worker IN ({marks}) AND EXISTS (SELECT 1 FROM job_attempts a "
            "WHERE a.run_id = jobs.run_id AND a.attempt = jobs.attempts "
            "AND a.finished IS NULL)",
            workers,
        )

    def expired(self) -> List[StoredRun]:
        """Running jobs past their deadline (the supervisor kills these)."""
        return self._rows("status = 'running' AND deadline < ?", (utc_now(),))

    # -- worker registry ------------------------------------------------------
    def _lock_file(self, worker_id: str) -> Path:
        return self.root / "workers" / f"{worker_id}.lock"

    def _alive_as(self, worker_id: str):
        """Hold ``worker_id``'s lock: alive to every :meth:`recover` meanwhile."""
        (self.root / "workers").mkdir(exist_ok=True)
        return exclusive(self._lock_file(worker_id))

    @contextlib.contextmanager
    def serving(self, worker_id: str) -> Iterator[str]:
        """The body is this process as the registered, live ``worker_id``:
        its lock is taken before, and dropped after, any row names it.  A
        pool worker and a draining caller claim under it."""
        with self._alive_as(worker_id):
            self.register_worker(worker_id, os.getpid())
            try:
                yield worker_id
            finally:
                self.remove_worker(worker_id)

    def register_worker(self, worker_id: str, pid: int) -> None:
        self._write(_REGISTER, (worker_id, int(pid), utc_now()))

    def remove_worker(self, worker_id: str) -> None:
        self._write("DELETE FROM workers WHERE worker_id = ?", (worker_id,))

    def workers(self) -> List[Dict[str, Any]]:
        """Registered workers, each ``busy`` on the ``running`` row naming it
        (``job_id``) or ``idle``."""
        records = self._read(
            "SELECT workers.worker_id, pid, workers.started, MIN(jobs.run_id) FROM workers "
            "LEFT JOIN jobs ON jobs.worker = workers.worker_id AND jobs.status = 'running' "
            "GROUP BY workers.worker_id ORDER BY workers.worker_id"
        )
        return [
            dict(worker_id=w, pid=pid, started=t, state="busy" if job else "idle", job_id=job)
            for w, pid, t, job in records
        ]

    # -- queries --------------------------------------------------------------
    def get(self, job_id: str) -> Optional[StoredRun]:
        with self._lock:
            return self._get(self._conn, job_id)

    def jobs(
        self,
        status: Optional[str] = None,
        where: Optional[Mapping[str, Any]] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[StoredRun]:
        """Rows by status, dotted config keys and creation window, paged.

        The one query behind ``repro results ls``, ``repro jobs ls`` and
        ``GET /jobs``: ``limit``/``offset`` page through the match set in
        creation order, and a status outside :data:`JOB_STATUSES` or a
        negative ``limit``/``offset`` is refused by name.
        """
        for name, value in (("limit", limit), ("offset", offset)):
            if value is not None and int(value) < 0:
                raise StoreError(f"{name} must be >= 0, got {value}")
        sql = f"SELECT {', '.join('jobs.' + col for col in COLUMNS)} FROM jobs"
        clauses: List[str] = []
        params: List[Any] = []
        for i, (key, value) in enumerate(dict(where or {}).items()):
            alias = f"kv{i}"
            sql += (
                f" JOIN config_kv AS {alias} ON {alias}.run_id = jobs.run_id"
                f" AND {alias}.key = ? AND {alias}.value = ?"
            )
            params += [key, canonical_json(value)]
        if status is not None:
            if status not in JOB_STATUSES:
                raise StoreError(
                    f"unknown status {status!r}; one of: {', '.join(JOB_STATUSES)}"
                )
            clauses.append("jobs.status = ?")
            params.append(status)
        if since is not None:
            clauses.append("jobs.created >= ?")
            params.append(float(since))
        if until is not None:
            clauses.append("jobs.created <= ?")
            params.append(float(until))
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY jobs.created, jobs.run_id"
        if limit is not None or offset:
            # sqlite treats LIMIT -1 as "no limit", which is exactly the
            # offset-without-limit paging case
            sql += " LIMIT ? OFFSET ?"
            params += [-1 if limit is None else int(limit), int(offset)]
        return [_row(r) for r in self._read(sql, params)]

    def attempts(self, job_id: str) -> List[Dict[str, Any]]:
        """Full attempt history of one job, oldest first."""
        keys = ("attempt", "worker", "started", "finished", "outcome", "error")
        records = self._read(
            f"SELECT {', '.join(keys)} FROM job_attempts WHERE run_id = ? ORDER BY attempt",
            (job_id,),
        )
        return [dict(zip(keys, r)) for r in records]

    def counts(self) -> Dict[str, int]:
        """Jobs per status (all statuses present, zeros included)."""
        out = {status: 0 for status in JOB_STATUSES}
        for status, n in self._read("SELECT status, COUNT(*) FROM jobs GROUP BY status"):
            out[status] = int(n)
        return out
