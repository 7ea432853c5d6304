"""``repro.serve`` — a long-running simulation job service.

Built on :mod:`repro.store`: a job is a run's one durable row in the
store's own schema-versioned index (it survives server restarts, and
its id is the run's id), results land in the same content-addressed
store every other entry point reads, and
concurrent jobs sharing a ``(system, scf, backend)`` group coalesce
onto one SCF through the store's ground-state lease
(:mod:`repro.store.lease`).

Layers
------
:class:`~repro.serve.queue.JobQueue`
    The durable queue and the one owner of the run rows: the job
    lifecycle, one table of events (:data:`~repro.serve.queue.EVENTS`),
    applied in atomic SQLite transactions on the study's ``index.sqlite``.
:mod:`repro.serve.worker`
    The worker-process entry point: claim → the run kernel
    (:func:`repro.api.runs.run_one`) with live progress → report.
:class:`~repro.serve.pool.WorkerPool`
    Spawned worker processes plus the supervisor logic: respawn dead
    workers, requeue their jobs and those of any other process that is
    gone (a killed ``repro run --store``), enforce per-job deadlines;
    :func:`~repro.serve.pool.drain` is its batch form, which parallel
    sweeps run on: N computing processes are the caller and N - 1
    spawned.
:class:`~repro.serve.service.JobService`
    The composed server: store + queue + pool + a stdlib
    ``ThreadingHTTPServer`` JSON API.
:class:`~repro.serve.client.ServeClient`
    Stdlib HTTP client used by ``repro submit`` / ``repro jobs URL``.

Entry points: ``repro serve CONFIG``, ``repro submit CONFIG --url``,
``repro jobs ls|show|fetch|watch|cancel URL`` (the first three read a store directory too).

The service process only routes, so it imports numpy and nothing
heavier; each spawned worker imports :mod:`repro.serve.worker`, and with
it the physics, in its own process (the rule of :mod:`repro.api`), and
never imports the HTTP server or client.
"""

from repro.utils.lazy import lazy_exports

#: public name -> submodule, imported on first use
_EXPORTS = {
    "JOB_STATUSES": ".queue",
    "JobQueue": ".queue",
    "JobService": ".service",
    "ServeClient": ".client",
    "ServeError": ".client",
    "WorkerPool": ".pool",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
