"""The worker pool and its supervisor logic.

Workers are **spawned** processes (never forked: the server runs HTTP
handler threads, and forking a threaded process is undefined behavior
waiting to happen) running :func:`repro.serve.worker.worker_main`,
which each child imports itself.
:func:`drain`, the batch form every sweep runs on, spawns one
fewer than it was asked for and computes in the calling process too.

The pool itself holds no job state — the queue is the single source of
truth.  :meth:`WorkerPool.tick` is the supervisor pass the service runs
a few times a second: it kills a worker whose job is past its deadline
or cancelled (there is no safe way to interrupt a propagation mid-step
from outside), reports each job a dead worker was on as a failed
attempt (``timeout`` or ``crashed``) and respawns the worker, and reaps
the rows of any other process that is gone (:meth:`JobQueue.recover`):
a stored run (``repro run --store``), another pool's worker killed
outright.  What each report does to a row is its event's row of the
lifecycle table (:data:`repro.serve.queue.EVENTS`).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import sys
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.api.config import SimulationConfig
from repro.serve.queue import TERMINAL_STATUSES, JobQueue
from repro.store.query import StoredRun


# The two entries into repro.serve.worker import it, and with it the
# physics, where they run: the supervising process imports only this
# module, so it never pays for the run kernel its workers execute.


def _worker_process(store_root: str, worker_id: str, backoff: float) -> None:
    """The spawn target: :func:`repro.serve.worker.worker_main` in the child,
    then an exit with no interpreter teardown (its store is closed, its row
    and lock gone), which would make each :meth:`WorkerPool.stop` ~30 ms longer."""
    from repro.serve.worker import worker_main

    worker_main(store_root, worker_id, backoff)
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(0)


def execute_job(store, queue: JobQueue, job: StoredRun, backoff: float) -> None:
    """:func:`repro.serve.worker.execute_job`, for a draining caller."""
    from repro.serve.worker import execute_job as execute

    execute(store, queue, job, backoff)


#: tells apart the pools one process creates (a sweep beside a service)
_pool_numbers = itertools.count()


class WorkerPool:
    """``n`` spawned worker processes over one store's job queue; a job
    one of them fails is retried ``backoff`` seconds later, doubling."""

    def __init__(
        self,
        store_root: str,
        queue: JobQueue,
        n_workers: int = 2,
        backoff: float = 0.5,
    ) -> None:
        self.store_root = str(store_root)
        self.queue = queue
        self.n_workers = int(n_workers)
        self.backoff = float(backoff)
        self._ctx = mp.get_context("spawn")
        #: prefix of every worker id of this pool: pools share the store's
        #: ``workers/`` lock files, and one pool must never take another's
        #: row (or fail another's job) for its own
        self.tag = f"p{os.getpid()}n{next(_pool_numbers)}"
        #: slot -> live process; worker ids encode slot + generation so a
        #: respawned worker never aliases its predecessor's claimed jobs
        self._procs: Dict[int, mp.process.BaseProcess] = {}
        self._generation: Dict[int, int] = {}
        self._ids: Dict[int, str] = {}

    # -- lifecycle ------------------------------------------------------------
    def _spawn(self, slot: int) -> None:
        gen = self._generation.get(slot, 0) + 1
        self._generation[slot] = gen
        worker_id = f"{self.tag}w{slot}g{gen}"
        proc = self._ctx.Process(
            target=_worker_process,
            args=(self.store_root, worker_id, self.backoff),
            name=f"repro-serve-{worker_id}",
            daemon=True,
        )
        proc.start()
        self._procs[slot] = proc
        self._ids[slot] = worker_id

    def start(self) -> None:
        for slot in range(self.n_workers):
            self._spawn(slot)

    def stop(self) -> None:
        """SIGTERM every worker (it leaves through ``serving``, row and lock
        file gone); one still there after 5 s is killed."""
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in self._procs.values():
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
        self._procs.clear()
        self._ids.clear()

    # -- supervision ----------------------------------------------------------
    def pid_of(self, worker_id: str) -> Optional[int]:
        for slot, wid in self._ids.items():
            if wid == worker_id:
                proc = self._procs.get(slot)
                return proc.pid if proc is not None else None
        return None

    def kill_worker(self, worker_id: str) -> bool:
        """Hard-kill one worker (deadline/cancel enforcement)."""
        for slot, wid in list(self._ids.items()):
            if wid == worker_id:
                proc = self._procs[slot]
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=5.0)
                return True
        return False

    def tick(self) -> None:
        """One supervisor pass: enforce deadlines, reap the dead, respawn,
        requeue the orphans of other processes."""
        # deadline enforcement first, so an over-budget worker is already
        # dead when the reaping pass below requeues its job
        for job in self.queue.expired():
            if job.worker:
                self.kill_worker(job.worker)
            self.queue.fail_attempt(
                job.run_id,
                f"timed out after {job.timeout:g}s",
                backoff=self.backoff,
                outcome="timeout",
            )
        # cancelled jobs whose worker is still burning cycles
        for job in self.queue.open_on(list(self._ids.values())):
            if job.status == "cancelled":
                self.kill_worker(job.worker)
        for slot, proc in list(self._procs.items()):
            if proc.is_alive():
                continue
            worker_id = self._ids[slot]
            # the worker died without reporting: fail each job it was on
            # on its behalf — the claim already consumed the attempt; one
            # cancelled under it (killed by the cancel) closes ``cancelled``
            for job in self.queue.open_on([worker_id]):
                self.queue.fail_attempt(
                    job.run_id,
                    f"worker {worker_id} died (exitcode {proc.exitcode})",
                    backoff=self.backoff,
                    outcome="crashed",
                )
            self._spawn(slot)
        # this pool's live workers are kept; the lock files of those reaped above go
        self.queue.recover(keep=list(self._ids.values()))


#: longest a draining caller that found nothing to claim sleeps before it
#: looks again; a caller that did claim something does not sleep at all
DRAIN_IDLE_S = 0.02


def drain(
    store,
    configs: Sequence[SimulationConfig],
    n_workers: int,
    on_done: Callable[[StoredRun], None],
    labels: Sequence[Mapping[str, Any]],
) -> None:
    """Run ``configs`` through ``store``'s queue on ``n_workers`` processes.

    The batch form of the service (every ``run_ensemble`` sweep runs on
    it).  ``n_workers`` processes compute: **the caller and
    ``n_workers - 1`` spawned**, so 1 is the caller alone.  The caller
    takes its worker's lock, submits, starts the
    others, and then does what they do (claim,
    :func:`~repro.serve.worker.execute_job`) between supervisor passes,
    handing each job row to ``on_done`` as it turns terminal; it returns
    when all have.  ``labels`` (one per config) file each row's sweep
    overrides at submit.  So the first job starts at once, beside the
    children's spawn and import instead of after them; the price is that
    a job a child finishes is handed to ``on_done`` when the caller next
    finishes its own, not the moment it lands.

    ``max_attempts=1``: a config that raises, or whose spawned worker is
    killed, is an ``error`` job, not a retry.  The caller is a worker
    (:meth:`JobQueue.serving`): what kills it ends the batch and drops
    its lock, and the next supervisor pass on the store requeues its
    claim.  A job some other live process on the same store already holds
    is waited for, not duplicated.  On the way out, by return or by
    exception, the workers are stopped and nothing of this batch is left
    claimable or running; after an exception one supervisor pass, once
    the caller's lock is dropped, closes the attempts the stopped workers
    and the caller left open on the cancelled rows.
    """
    queue = store.queue
    pool = WorkerPool(str(store.root), queue, n_workers=n_workers - 1, backoff=0.0)
    waiting: List[str] = []
    try:
        with queue.serving(f"{pool.tag}caller") as me:
            try:
                waiting = [
                    queue.submit(config, max_attempts=1, overrides=label)[0].run_id
                    for config, label in zip(configs, labels)
                ]
                pool.start()
                while waiting:
                    pool.tick()
                    mine = queue.claim(me)
                    if mine is not None:
                        execute_job(store, queue, mine, 0.0)
                    for job_id in list(waiting):
                        job = queue.get(job_id)
                        if job is not None and job.status in TERMINAL_STATUSES:
                            waiting.remove(job_id)
                            on_done(job)
                    if mine is None and waiting:
                        time.sleep(DRAIN_IDLE_S)
            finally:
                pool.stop()
                for job_id in waiting:
                    queue.cancel(job_id)
    finally:
        if waiting:
            queue.recover()
