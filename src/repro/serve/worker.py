"""Worker-process entry point: claim → execute → report, forever.

``worker_main`` is the target the pool spawns.  Each worker owns its
*own* :class:`~repro.store.ResultStore` handle (and with it its
:class:`~repro.serve.queue.JobQueue`) on the shared study
directory (SQLite connections cannot cross a process boundary) and
loops: claim the oldest runnable job, execute it through the ordinary
:class:`~repro.api.simulation.Simulation` facade, append the result to
the store, report the outcome.

Each job is one call of the run kernel (:func:`repro.api.runs.run_one`)
against the shared store — cache hit, else the group's ground state
(blob, or one lease-elected SCF across all workers), propagation,
append — with a throttled progress callback publishing ``step /
n_steps`` into the job row for ``GET /jobs/<id>``.  The result file
lands in the store first, then the job's row turns ``ok`` with the
result's columns (a crash between the two re-runs the job, which then
finishes the row from the file instead of recomputing).

Failures are reported as failed attempts (the queue requeues with
backoff or gives up); a worker killed outright reports nothing — the
supervisor notices the dead process and fails the attempt on its
behalf, and any other supervisor on the store sees the worker's lock
(:meth:`~repro.serve.queue.JobQueue.serving`) dropped with it.
"""

from __future__ import annotations

import signal
import time
import traceback

from repro.api.runs import run_one
from repro.api.simulation import Simulation
from repro.serve.queue import JobQueue
from repro.store.query import StoredRun

#: seconds a worker that found nothing to claim sleeps before it looks again
IDLE_SLEEP_S = 0.1

#: minimum seconds between progress writes (keeps the index write rate
#: independent of step rate)
PROGRESS_EVERY_S = 0.25


def execute_job(store, queue: JobQueue, job: StoredRun, backoff: float) -> None:
    """Run one claimed job to a terminal report: ok, or a failed attempt
    retried ``backoff`` seconds later (doubling per attempt)."""
    job_id = job.run_id
    last = [0.0]

    def _progress(step: int, n_steps: int) -> None:
        now = time.monotonic()
        if step in (0, n_steps) or now - last[0] >= PROGRESS_EVERY_S:
            last[0] = now
            queue.progress(
                job_id,
                step / n_steps if n_steps else 1.0,
                f"step {step}/{n_steps}" if step else "propagating",
            )

    try:
        queue.progress(job_id, 0.0, "converging ground state")
        # the store finishes the row it claimed when it adds the result
        run_one(Simulation(job.config), store, _progress, claimed=True)
    except Exception as exc:  # noqa: BLE001 - every job error becomes a report
        error = f"{type(exc).__name__}: {exc}\n{traceback.format_exc(limit=5)}"
        queue.fail_attempt(job_id, error, backoff=backoff)


def worker_main(store_root: str, worker_id: str, backoff: float) -> None:
    """The spawned worker process: take its lock, then claim/execute forever.

    The pool's SIGTERM on shutdown raises ``KeyboardInterrupt``, so the
    worker leaves through ``serving``, its lock file gone.
    An unhandled crash is surfaced by the supervisor (dead process →
    failed attempt → respawn).
    The loop's one exit of its own is for a worker nobody supervises any
    more: when the process that spawned it is gone (killed outright, so
    it stopped nobody), the worker finishes the job it has and leaves.
    """
    import multiprocessing as mp

    from repro.store import ResultStore

    store = ResultStore(store_root, create=False)
    queue = store.queue
    parent = mp.parent_process()
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        with queue.serving(worker_id):
            while parent is None or parent.is_alive():
                job = queue.claim(worker_id)
                if job is None:
                    time.sleep(IDLE_SLEEP_S)
                    continue
                execute_job(store, queue, job, backoff)
    except KeyboardInterrupt:
        # the pool's SIGTERM, or a Ctrl-C on the server's process group;
        # exit quietly — the next supervisor pass requeues a claimed job
        pass
    finally:
        store.close()
