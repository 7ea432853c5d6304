"""Stdlib HTTP client for a running ``repro serve`` instance.

Wraps :mod:`urllib.request` — the same zero-dependency stance as the
server — and is what ``repro submit`` / ``repro jobs URL`` drive; it
reads rows as :class:`~repro.store.ResultStore` does.  Server error
bodies (``{"error": ...}``) surface as :class:`ServeError` with the
server's message, so CLI users see "job r1a2b3c4d5e6f is queued" rather
than a bare HTTP 409.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple
from urllib.parse import urlencode

from repro.store.query import StoredRun
from repro.trace import traced
from repro.utils.io import atomic_write_stream


class ServeError(ValueError):
    """A job-service request failed; carries the HTTP status.

    Subclasses :class:`ValueError` so the CLI's error net prints it as
    a user-facing message.
    """

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


def stored_run(view: Mapping[str, Any]) -> StoredRun:
    """The row a :func:`~repro.serve.http.job_view` carries, the one place a view
    turns back into a :class:`StoredRun` (a listing's has no config to read)."""
    values = {**view, "run_id": view["job_id"], "config_json": json.dumps(view.get("config"))}
    return StoredRun(**{f.name: values[f.name] for f in fields(StoredRun)})


class ServeClient:
    """Talk to one job server at ``url`` (e.g. ``http://127.0.0.1:8752``)."""

    def __init__(self, url: str, timeout_s: float = 30.0) -> None:
        self.url = url.rstrip("/")
        self.timeout_s = float(timeout_s)

    # -- plumbing -------------------------------------------------------------
    def _request(self, path: str, payload: Optional[Dict[str, Any]] = None):
        data = json.dumps(payload).encode() if payload is not None else None
        req = urllib.request.Request(
            self.url + path,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
        )  # a request with a body (cancel's is ``{}``) is a POST
        try:
            return urllib.request.urlopen(req, timeout=self.timeout_s)
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read()).get("error", str(exc))
            except Exception:  # noqa: BLE001 - body may not be JSON
                message = str(exc)
            raise ServeError(message, status=exc.code) from exc
        except urllib.error.URLError as exc:
            raise ServeError(
                f"cannot reach job server at {self.url} ({exc.reason}); "
                f"is `repro serve` running?"
            ) from exc

    def _json(self, path: str, payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        with self._request(path, payload) as resp:
            return json.loads(resp.read())

    # -- API ------------------------------------------------------------------
    def healthz(self) -> Dict[str, Any]:
        return self._json("/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._json("/stats")

    @traced("serve.http.post_jobs")
    def submit(
        self,
        config,
        max_attempts: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Submit a config (a :class:`SimulationConfig` or nested dict)."""
        if hasattr(config, "to_dict"):
            config = config.to_dict()
        # sent as given: the server refuses a value its policy would not take
        policy = {"max_attempts": max_attempts, "timeout": timeout}
        payload = {"config": config, **{k: v for k, v in policy.items() if v is not None}}
        return self._json("/jobs", payload)

    def jobs(self, **filters) -> List[Dict[str, Any]]:
        """``GET /jobs``: the views of the rows
        :meth:`JobQueue.jobs <repro.serve.queue.JobQueue.jobs>` finds for the
        same filters (``where`` a dotted-key dict, ``since``/``until`` unix
        times); the server refuses one it does not know."""
        where = filters.pop("where", None) or {}
        query = [("where", f"{key}={json.dumps(value)}") for key, value in where.items()]
        query += [(key, value) for key, value in filters.items() if value is not None]
        return self._json("/jobs?" + urlencode(query))["jobs"]

    def job(self, job_id: str) -> Dict[str, Any]:
        return self._json(f"/jobs/{job_id}")

    # -- the rows, read as a store directory reads them -----------------------
    def query(self, **filters) -> List[StoredRun]:
        """:meth:`jobs` as rows (:meth:`ResultStore.query <repro.store.ResultStore.query>`)."""
        return [stored_run(view) for view in self.jobs(**filters)]

    def history(self, job_id: str) -> Tuple[StoredRun, List[Dict[str, Any]]]:
        """One row, with its config, and its attempts, oldest first."""
        view = self.job(job_id)
        return stored_run(view), view["history"]

    def __len__(self) -> int:
        return int(self.stats()["total_jobs"])

    def close(self) -> None:
        """Nothing to release: each request is its own connection."""

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._json(f"/jobs/{job_id}/cancel", payload={})

    def wait(
        self, job_id: str, timeout_s: float = 600.0, poll_s: float = 0.25,
        progress=None,
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal status; returns it.

        ``progress`` (when given) is called with the job dict on every
        poll — the hook ``repro jobs watch`` uses to render a live line.
        """
        import time

        deadline = time.monotonic() + timeout_s
        while True:
            job = self.job(job_id)
            if progress is not None:
                progress(job)
            if job["status"] in ("ok", "error", "cancelled"):
                return job
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {job['status']} after {timeout_s:g}s"
                )
            time.sleep(poll_s)

    @traced("serve.http.fetch")
    def fetch(self, job_id: str, path) -> Path:
        """Download a finished job's result ``.npz`` to ``path``."""
        with self._request(f"/jobs/{job_id}/result") as resp:
            return atomic_write_stream(path, resp)
