"""The composed job server: store + queue + worker pool + HTTP listener.

One :class:`JobService` owns everything ``repro serve`` runs:

- the study's :class:`~repro.store.ResultStore` and its
  :class:`~repro.serve.queue.JobQueue`, whose rows are the study's runs;
- a :class:`~repro.serve.pool.WorkerPool` of spawned processes plus a
  supervisor thread ticking it (respawn dead workers, requeue their
  jobs, enforce deadlines);
- a :class:`~repro.serve.http.ServeHTTPServer` on its own thread.

Boot is where durability pays off: it reaps the rows of processes that
are gone by the supervisor's own rule
(:meth:`~repro.serve.queue.JobQueue.recover`), so restarting the server
resumes the study exactly where it stopped.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Optional, Tuple

from repro.api.config import ServeConfig, SimulationConfig
from repro.serve.http import ServeHTTPServer
from repro.serve.pool import WorkerPool
from repro.store.common import utc_now
from repro.store.query import StoredRun
from repro.trace import traced
from repro.utils.validation import declaration

#: seconds between supervisor passes
SUPERVISE_EVERY_S = 0.25


class JobService:
    """A runnable job server over one result store.

    Parameters mirror the ``[serve]`` config section; ``port=0`` binds
    an ephemeral port (tests), readable from :attr:`port` after
    :meth:`start`.
    """

    def __init__(
        self,
        store_root,
        host: str = "127.0.0.1",
        port: int = 8752,
        workers: int = 2,
        timeout: float = 0.0,
        retries: int = 3,
        backoff: float = 0.5,
        log_requests: bool = False,
    ) -> None:
        from repro.store import ResultStore

        self.store = ResultStore.ensure(store_root)
        self.queue = self.store.queue
        self.host = host
        self.requested_port = int(port)
        self.timeout = float(timeout)
        self.retries = int(retries)
        self.backoff = float(backoff)
        self.log_requests = log_requests
        self.pool = WorkerPool(
            str(self.store.root), self.queue, n_workers=workers, backoff=self.backoff
        )
        self._http: Optional[ServeHTTPServer] = None
        self._http_thread: Optional[threading.Thread] = None
        self._supervisor: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._started_at: Optional[float] = None
        self.recovered = 0

    # -- lifecycle ------------------------------------------------------------
    def start(self) -> "JobService":
        """Recover the queue, start workers, supervisor, and listener."""
        self.recovered = self.queue.recover()
        self._stop.clear()
        self._started_at = utc_now()
        self.pool.start()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-serve-supervisor", daemon=True
        )
        self._supervisor.start()
        self._http = ServeHTTPServer((self.host, self.requested_port), self)
        self._http_thread = threading.Thread(
            target=self._http.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-serve-http",
            daemon=True,
        )
        self._http_thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._http is not None:
            self._http.shutdown()
            self._http.server_close()
            self._http = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
            self._http_thread = None
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)
            self._supervisor = None
        self.pool.stop()
        self.store.close()

    def __enter__(self) -> "JobService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def port(self) -> int:
        """The actually-bound port (differs from requested when 0)."""
        if self._http is None:
            return self.requested_port
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _supervise(self) -> None:
        while not self._stop.wait(SUPERVISE_EVERY_S):
            try:
                self.pool.tick()
            except Exception:  # noqa: BLE001 - supervision must survive races
                # a tick racing a shutdown can see closed handles; the
                # next tick (or the stop flag) resolves it
                if self._stop.is_set():
                    return

    # -- operations (shared by HTTP and direct callers) -----------------------
    @traced("serve.service.submit")
    def submit(
        self,
        config,
        max_attempts: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Tuple[StoredRun, bool]:
        """Submit a config; returns ``(job, created)``.

        Idempotent by content hash — resubmitting an identical config
        returns the existing job, and a config whose run the store
        already holds is that ``ok`` row: nothing is queued.
        ``created`` is whether this call made (or re-armed) the row.
        ``max_attempts`` and ``timeout`` are refused by name unless
        ``serve.retries`` and ``serve.timeout`` would accept them.
        """
        if max_attempts is None:
            max_attempts = self.retries
        if timeout is None:
            timeout = self.timeout
        declaration(ServeConfig, "retries").check(max_attempts, "max_attempts")
        declaration(ServeConfig, "timeout").check(timeout, "timeout")
        if not isinstance(config, SimulationConfig):
            config = SimulationConfig.from_dict(config)
        return self.queue.submit(config, max_attempts=max_attempts, timeout=timeout)

    def submit_payload(self, payload: Dict[str, Any]) -> Tuple[StoredRun, bool]:
        """``POST /jobs`` body -> :meth:`submit` arguments."""
        if "config" not in payload:
            raise ValueError('request body must carry a "config" object')
        extra = sorted(set(payload) - {"config", "max_attempts", "timeout"})
        if extra:
            raise ValueError(
                f"unknown field(s) {', '.join(extra)}; "
                f"valid: config, max_attempts, timeout"
            )
        return self.submit(
            payload["config"],
            max_attempts=payload.get("max_attempts"),
            timeout=payload.get("timeout"),
        )

    def cancel(self, job_id: str) -> StoredRun:
        """Cancel a job; a running job's worker is killed (then respawned)."""
        prior = self.queue.cancel(job_id)
        if prior.status == "running" and prior.worker:
            self.pool.kill_worker(prior.worker)
        job = self.queue.get(job_id)
        assert job is not None
        return job

    def healthz(self) -> Dict[str, Any]:
        import repro

        return {
            "ok": True,
            "version": repro.__version__,
            "store": str(self.store.root),
            "workers": self.pool.n_workers,
        }

    def stats(self) -> Dict[str, Any]:
        counts = self.queue.counts()
        return {
            "jobs": counts,
            "total_jobs": sum(counts.values()),
            "workers": self.queue.workers(),
            "stored_runs": counts["ok"],
            "ground_state_blobs": len(self.store.blobs.ground_state_addresses()),
            "recovered_on_boot": self.recovered,
            "uptime_s": (
                utc_now() - self._started_at if self._started_at else 0.0
            ),
        }

