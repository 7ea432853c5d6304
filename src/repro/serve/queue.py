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
of them wins.

The lifecycle is one table, :data:`EVENTS`: per event, the statuses it
moves from, the status it moves to, what becomes of the row's open
attempt and the columns it sets.  A row is born ``queued``;
:meth:`JobQueue._move` applies an event and is the only code that
changes a status or opens or closes an attempt.  ``attempts`` is the
number of the row's ``job_attempts`` rows and never exceeds
``max_attempts``: a claim opens one, so a worker that dies without
reporting back (SIGKILL, OOM) still consumed it, and a crash-looping job
cannot retry forever.

A worker is its lock file, ``workers/<worker_id>.lock`` in the store
(:mod:`repro.store.lease`): held, with its pid and start time, from
before any row names it until that row is final.  Its state is the
``running`` row naming it; no table records workers.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple

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
from repro.store.lease import exclusive, holders
from repro.store.query import StoredRun
from repro.store.schema import INDEX_FILENAME, ensure_schema, inspect_store
from repro.trace import span, traced


class Event(NamedTuple):
    """One row of the lifecycle table."""

    #: the statuses it moves from
    source: Tuple[str, ...]
    #: the status it moves to (``None``: unchanged)
    to: Optional[str]
    #: ``"open"``: a new attempt opens on ``:worker`` and ``attempts`` counts
    #: up; ``"clear"``: the history goes and ``attempts`` restarts at 0
    attempt: str
    #: the outcomes the open attempt, if any, closes with: the first, or
    #: the one the caller names (none: it stays open)
    closes: Tuple[str, ...]
    #: the other columns it sets, as SQL over ``:now`` and the caller's values
    sets: str
    #: the statuses it leaves as they are: a race or a repeat, not an error
    quiet: Tuple[str, ...] = ()


#: what a claim or a begin sets: the row is ``running`` on ``:worker``'s
#: next attempt, its budget grown to allow it, its deadline clock started
_START = (
    "worker = :worker, attempts = attempts + 1, max_attempts = MAX(max_attempts, attempts + 1), "
    "updated = :now, started = :now, finished = NULL, "
    "deadline = CASE WHEN timeout > 0 THEN :now + timeout END, progress = 0.0, message = NULL"
)

#: how a failed attempt closes: an execution error, a deadline, a dead worker
_FAILED = ("error", "timeout", "crashed")

#: a failed attempt's report on a row that left ``running`` meanwhile
_RESOLVED = ("queued", "ok", "error")

#: the job lifecycle, one row per event (README's "Job service" shows it)
EVENTS: Dict[str, Event] = {
    "claim": Event(("queued",), "running", "open", (), _START),
    # a stored run takes its row from any state (so does a result nobody
    # began), a killed run's open attempt closed first
    "begin": Event(
        ("queued", "running", "ok", "error", "cancelled"), "running", "open", ("interrupted",), _START
    ),
    "finish": Event(
        ("running",), "ok", "", ("ok",),
        "error = NULL, updated = :now, finished = :now, deadline = NULL, progress = 1.0, "
        "gs_address = :gs_address, elapsed = :elapsed, n_times = :n_times, fft_json = :fft, "
        "parallel_json = :parallel",
    ),
    "retry": Event(
        ("running",), "queued", "", _FAILED,
        "error = :error, updated = :now, worker = NULL, deadline = NULL, "
        "not_before = :not_before, progress = 0.0",
        quiet=_RESOLVED,
    ),
    "give_up": Event(
        ("running",), "error", "", _FAILED,
        "error = :error, updated = :now, finished = :now, worker = NULL, deadline = NULL",
        quiet=_RESOLVED,
    ),
    # a running row's attempt stays open until its worker ends (close_cancelled)
    "cancel": Event(
        ("queued", "running"), "cancelled", "", (), "updated = :now, finished = :now, deadline = NULL",
        quiet=("ok", "error", "cancelled"),
    ),
    # a worker that raced past the cancel, failed under it or is gone
    "close_cancelled": Event(("cancelled",), None, "", ("cancelled",), ""),
    # the supervisor's: the row's worker no longer holds its lock
    "reap": Event(
        ("running",), "queued", "", ("interrupted",),
        "worker = NULL, deadline = NULL, not_before = 0.0, progress = 0.0, updated = :now",
    ),
    # a submit of a failed or cancelled row: a fresh request
    "rearm": Event(
        ("error", "cancelled"), "queued", "clear", (),
        "error = NULL, worker = NULL, attempts = 0, max_attempts = :max_attempts, "
        "timeout = :timeout, created = :now, updated = :now, started = NULL, finished = NULL, "
        "deadline = NULL, not_before = 0.0, progress = 0.0, message = NULL, "
        "overrides_json = COALESCE(:overrides, overrides_json)",
        quiet=("queued", "running", "ok"),
    ),
}

#: every state a row can be in
JOB_STATUSES = tuple(dict.fromkeys(s for e in EVENTS.values() for s in (*e.source, e.to) if s))

#: states a job can never leave on its own: the ones a cancel leaves as they are
TERMINAL_STATUSES = EVENTS["cancel"].quiet

#: the row's JSON text columns, stored as ``<field>_json``
_JSON_FIELDS = ("overrides", "fft", "parallel")

#: ``jobs`` columns in :class:`StoredRun` field order (the DDL's order)
COLUMNS = tuple(
    f"{f.name}_json" if f.name in _JSON_FIELDS else f.name for f in fields(StoredRun)
)

_SELECT = f"SELECT {', '.join(COLUMNS)} FROM jobs"


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
    """Durable run and attempt tables of one study's ``index.sqlite``.

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
        self._lock_dir = self.root / "workers"  # one lock file per live worker

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
    def _move(conn, run_id: str, event: str, now: float, **values) -> bool:
        """Apply ``event``'s row of :data:`EVENTS` to ``run_id``'s row in the
        caller's transaction; ``False`` when the row's status is one the
        event leaves as it is.  An event from a status the table has no row
        for is refused.

        ``values`` fill the row's ``sets``; ``outcome`` picks one of its
        ``closes``, ``error`` is the closed attempt's (and the row's)."""
        move = EVENTS[event]
        with span(f"serve.queue.{event}"):
            record = conn.execute("SELECT status FROM jobs WHERE run_id = ?", (run_id,)).fetchone()
            if record is None:
                raise StoreError(f"queue has no job {run_id!r}")
            status = record[0]
            if status in move.quiet:
                return False
            if status not in move.source:
                raise StoreError(f"run {run_id!r}: the job lifecycle has no {event!r} from {status!r}")
            values = {"error": None, **values, "run_id": run_id, "now": now, "to": move.to}
            values.setdefault("outcome", move.closes[0] if move.closes else None)
            if move.attempt == "clear":
                conn.execute("DELETE FROM job_attempts WHERE run_id = :run_id", values)
            if move.closes:
                # a closed attempt is never rewritten, and open_on no longer names it
                conn.execute(
                    "UPDATE job_attempts SET finished = :now, outcome = :outcome, error = :error "
                    "WHERE run_id = :run_id AND finished IS NULL "
                    "AND attempt = (SELECT attempts FROM jobs WHERE run_id = :run_id)",
                    values,
                )
            if move.to is not None:
                conn.execute(f"UPDATE jobs SET status = :to, {move.sets} WHERE run_id = :run_id", values)
            if move.attempt == "open":
                conn.execute(
                    "INSERT INTO job_attempts (run_id, attempt, worker, started) "
                    "SELECT run_id, attempts, worker, started FROM jobs WHERE run_id = :run_id",
                    values,
                )
        return True

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
        hit); a failed or cancelled one is re-armed (``rearm``) as a fresh
        request.  ``created`` says whether this call inserted or re-armed
        the row.  ``overrides`` labels a new or re-armed row (a sweep's
        variant).
        """
        now = utc_now()

        def _submit(conn):
            run_id, inserted = self._insert(
                conn, config, overrides, now, max_attempts=max_attempts, timeout=timeout
            )
            rearmed = not inserted and self._move(
                conn, run_id, "rearm", now, max_attempts=int(max_attempts),
                timeout=float(timeout), overrides=_json(overrides),
            )
            return self._get(conn, run_id), inserted or rearmed

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
            self._move(conn, record[0], "claim", now, worker=worker_id)
            return self._get(conn, record[0])

        return self._txn(_claim)

    def begin(self, config: SimulationConfig) -> StoredRun:
        """A stored run takes its row (``begin``) on this thread's worker.

        Called bare, without the worker's (:func:`own_worker_id`) lock
        (:meth:`recording`), it leaves the row a killed run leaves, which
        :meth:`recover` requeues.  The row is created when missing.  An
        ``ok`` row is left as it is until the new result lands
        (:meth:`finish_ok` then records the attempt), so a re-run that
        fails or is killed leaves the stored run readable.  Unlike
        :meth:`claim`, it takes this config's row.
        """
        now = utc_now()

        def _begin(conn):
            run_id, _ = self._insert(conn, config, None, now)
            if self._get(conn, run_id).status != "ok":
                self._move(conn, run_id, "begin", now, worker=own_worker_id())
            return self._get(conn, run_id)

        return self._txn(_begin)

    @contextlib.contextmanager
    def recording(self, config: SimulationConfig) -> Iterator[StoredRun]:
        """The body computes ``config``'s stored run, recorded on its row.

        The worker's lock is held throughout (:meth:`serving`).
        :meth:`begin` on entry; the body finishes the row when it stores
        the result (:meth:`finish_ok`), and an exception fails the attempt
        before it propagates.  An ``ok`` row is not begun, so nothing here
        touches it.
        """
        with self.serving(own_worker_id()):
            row = self.begin(config)
            try:
                yield row
            except BaseException as exc:
                if row.status == "running":
                    self.fail_attempt(row.run_id, f"{type(exc).__name__}: {exc}")
                raise

    def progress(self, job_id: str, fraction: float, message: Optional[str] = None) -> None:
        """Publish live progress (``0.0``–``1.0``) for a running job."""
        values = (max(0.0, min(1.0, float(fraction))), message, utc_now(), job_id)
        self._txn(lambda conn: conn.execute(
            "UPDATE jobs SET progress = ?, message = ?, updated = ? "
            "WHERE run_id = ? AND status = 'running'", values,
        ))

    def finish_ok(
        self,
        config: SimulationConfig,
        *,
        gs_address: Optional[str] = None,
        elapsed: float = 0.0,
        n_times: int = 0,
        fft: Optional[Mapping[str, Any]] = None,
        parallel: Optional[Mapping[str, Any]] = None,
    ) -> StoredRun:
        """The config's run is stored: its row turns ``ok`` (``finish``)
        with these columns, or closes under a cancel.  A row nobody began
        (a result added on its own; a re-run of an ``ok`` row) is begun
        here first, on this thread's worker."""
        now = utc_now()

        def _ok(conn):
            run_id, _ = self._insert(conn, config, None, now)
            status = self._get(conn, run_id).status
            if status == "cancelled":
                self._move(conn, run_id, "close_cancelled", now)
                return self._get(conn, run_id)
            if status != "running":
                self._move(conn, run_id, "begin", now, worker=own_worker_id())
            self._move(
                conn, run_id, "finish", now, gs_address=gs_address, elapsed=float(elapsed),
                n_times=int(n_times), fft=_json(fft), parallel=_json(parallel),
            )
            return self._get(conn, run_id)

        return self._txn(_ok)

    def fail_attempt(
        self, job_id: str, error: str, backoff: float = 0.5,
        outcome: str = "error",
    ) -> StoredRun:
        """Record a failed attempt (an execution error, a per-job timeout or
        a worker death, ``outcome``): ``give_up`` once the attempt budget
        is spent, else ``retry`` after ``backoff`` seconds, doubling per
        attempt; a row cancelled meanwhile closes under the cancel."""
        now = utc_now()

        def _fail(conn):
            job = self._get(conn, job_id)
            if job is None:
                raise StoreError(f"queue has no job {job_id!r}")
            if job.status == "cancelled":
                self._move(conn, job_id, "close_cancelled", now)
            else:
                self._move(
                    conn, job_id, "give_up" if job.attempts >= job.max_attempts else "retry",
                    now, error=str(error), outcome=outcome,
                    not_before=now + float(backoff) * (2 ** max(0, job.attempts - 1)),
                )
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
            self._move(conn, job_id, "cancel", now)
            return job

        return self._txn(_cancel)

    # -- recovery / supervision ----------------------------------------------
    def recover(self, keep: Sequence[str] = ()) -> int:
        """Requeue every ``running`` job whose worker is gone (``reap``);
        how many.  A ``cancelled`` row whose worker is gone with its
        attempt open closes under the cancel.

        A worker lives when it is one of ``keep`` (a supervisor's own,
        which it reaps itself) or holds its lock
        (:func:`~repro.store.lease.holders`, which unlinks every free lock
        file).
        """
        now = utc_now()

        def _gone(conn):
            """The rows whose attempt is open on a gone worker."""
            # rows first: a worker that takes its lock after the listing
            # cannot be on one of these
            open_rows = conn.execute(
                "SELECT jobs.run_id, jobs.worker, status FROM jobs JOIN job_attempts a "
                "ON a.run_id = jobs.run_id AND a.attempt = jobs.attempts "
                "WHERE status IN ('running', 'cancelled') AND a.finished IS NULL"
            ).fetchall()
            live = set(keep).union(holders(self._lock_dir))
            return [(job_id, status) for job_id, worker, status in open_rows if worker not in live]

        def _recover(conn):
            orphans = _gone(conn)
            for job_id, status in orphans:
                self._move(conn, job_id, "reap" if status == "running" else "close_cancelled", now)
            return sum(status == "running" for _, status in orphans)

        with self._lock:
            # a supervisor asks a few times a second: take the write lock
            # only when there is something to requeue or close
            if not _gone(self._conn):
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

    # -- workers ------------------------------------------------------------
    @contextlib.contextmanager
    def serving(self, worker_id: str) -> Iterator[str]:
        """The body is this process as the live ``worker_id``: its lock is
        taken before, and dropped after, any row names it.  A pool worker
        and a draining caller claim under it."""
        self._lock_dir.mkdir(exist_ok=True)
        with exclusive(self._lock_dir / f"{worker_id}.lock"):
            yield worker_id

    def workers(self) -> List[Dict[str, Any]]:
        """The workers holding their lock, each ``busy`` on the ``running``
        row naming it (``job_id``) or ``idle``; one that has not yet
        written its pid is not listed yet."""
        live = {w: note for w, note in holders(self._lock_dir).items() if note}
        busy = dict(self._read(
            "SELECT worker, MIN(run_id) FROM jobs WHERE status = 'running' GROUP BY worker"
        ))
        return [
            dict(worker_id=w, pid=pid, started=started,
                 state="busy" if w in busy else "idle", job_id=busy.get(w))
            for w, (pid, started) in live.items()
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

        The one query behind ``repro jobs ls DIR`` and ``GET /jobs``:
        ``limit``/``offset`` page through the match set in creation order,
        and a status outside :data:`JOB_STATUSES` or a negative
        ``limit``/``offset`` is refused by name.
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
