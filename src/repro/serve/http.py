"""Stdlib HTTP/JSON surface of the job service.

Routes (all JSON unless noted)::

    GET  /healthz               liveness + version
    GET  /stats                 queue counts, workers, store size, uptime
    GET  /jobs[?status=&where=&since=&until=&limit=&offset=]
                                list jobs, filtered as ``repro jobs ls``
                                (400: a bad filter or a negative page)
    POST /jobs                  submit {"config": {...}} — idempotent
    GET  /jobs/<id>             one job: status, progress, attempts
    GET  /jobs/<id>/result      the stored run as a result .npz (binary)
    POST /jobs/<id>/cancel      cancel a queued/running job

Built on ``http.server.ThreadingHTTPServer`` — no framework, no new
dependencies; each request runs in its own thread against the
service's thread-safe queue/store handles.  Errors come back as
``{"error": "..."}`` with a meaningful status code (400 bad request,
404 unknown job, 409 result not ready).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import fields
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict
from urllib.parse import parse_qs, urlparse

from repro.store.query import StoredRun, parse_when, parse_where

#: request body cap — a simulation config is a few KB; anything larger
#: is not a config
MAX_BODY_BYTES = 1 << 20

#: what ``GET /jobs`` filters by: the arguments of :meth:`JobQueue.jobs`
FILTERS = ("status", "where", "since", "until", "limit", "offset")


def job_view(job: StoredRun, attempts=None) -> Dict[str, Any]:
    """The one wire form of a row (:func:`repro.serve.client.stored_run`
    reads it back): its columns but the config text, its id as ``job_id``
    and, once it has a result, ``run_id``; given its ``attempts``, also its
    ``config`` and ``history`` (a listing parses no config)."""
    out = {f.name: getattr(job, f.name) for f in fields(job) if f.name != "config_json"}
    out.update(job_id=job.run_id, run_id=job.run_id if job.ok else None)
    if attempts is not None:
        out.update(config=job.config.to_dict(), history=attempts)
    return out


class ServeHTTPServer(ThreadingHTTPServer):
    """The listener; carries the :class:`JobService` for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, service) -> None:
        self.service = service
        super().__init__(address, JobRequestHandler)


class JobRequestHandler(BaseHTTPRequestHandler):
    server: ServeHTTPServer

    #: quiet by default; the service enables request logging when asked
    def log_message(self, fmt, *args) -> None:
        if getattr(self.server.service, "log_requests", False):
            super().log_message(fmt, *args)

    # -- response helpers -----------------------------------------------------
    def _json(self, payload: Any, status: int = 200) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, message: str, status: int) -> None:
        self._json({"error": str(message)}, status=status)

    # -- dispatch -------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._answer(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._answer(self._route_post)

    def _answer(self, route) -> None:
        """Run ``route`` on the request's path; a refusal answers 400, a fault 500."""
        url = urlparse(self.path)
        try:
            route(self.server.service, url, [p for p in url.path.split("/") if p])
        except BrokenPipeError:
            pass
        except ValueError as exc:
            self._error(str(exc), 400)
        except Exception as exc:  # noqa: BLE001 - the server must not die
            self._error(f"internal error: {exc}", 500)

    def _route_get(self, service, url, parts) -> None:
        if url.path == "/healthz":
            self._json(service.healthz())
        elif url.path == "/stats":
            self._json(service.stats())
        elif parts == ["jobs"]:
            query = parse_qs(url.query)
            unknown = sorted(set(query) - set(FILTERS))
            if unknown:
                raise ValueError(
                    f"unknown filter(s) {', '.join(unknown)}; valid: {', '.join(FILTERS)}"
                )
            one = {key: values[-1] for key, values in query.items()}
            jobs = service.queue.jobs(
                status=one.get("status"),
                where=parse_where(query.get("where", [])),
                since=parse_when(one.get("since")),
                until=parse_when(one.get("until"), end=True),
                limit=int(one["limit"]) if "limit" in one else None,
                offset=int(one.get("offset", 0)),
            )
            self._json({"jobs": [job_view(j) for j in jobs]})
        elif len(parts) == 2 and parts[0] == "jobs":
            job = service.queue.get(parts[1])
            if job is None:
                self._error(f"no job {parts[1]!r}", 404)
                return
            self._json(job_view(job, attempts=service.queue.attempts(parts[1])))
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "result":
            self._send_result(service, parts[1])
        else:
            self._error(f"no route {url.path!r}", 404)

    def _send_result(self, service, job_id: str) -> None:
        job = service.queue.get(job_id)
        if job is None:
            self._error(f"no job {job_id!r}", 404)
            return
        if not job.ok:
            self._error(f"job {job_id} is {job.status} ({job.error or 'no result yet'})", 409)
            return
        with service.store.result_path(job.run_id).open("rb") as fh:
            # sized from the open handle: a re-run may replace the path
            # under us, the handle keeps reading the file it opened
            size = os.fstat(fh.fileno()).st_size
            self.send_response(200)
            self.send_header("Content-Type", "application/octet-stream")
            self.send_header("Content-Disposition", f'attachment; filename="{job_id}.npz"')
            self.send_header("Content-Length", str(size))
            self.end_headers()
            shutil.copyfileobj(fh, self.wfile, 1 << 16)

    def _route_post(self, service, url, parts) -> None:
        if parts == ["jobs"]:
            payload = self._read_json()
            job, created = service.submit_payload(payload)
            self._json(job_view(job), status=201 if created else 200)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
            if service.queue.get(parts[1]) is None:
                self._error(f"no job {parts[1]!r}", 404)
                return
            job = service.cancel(parts[1])
            self._json(job_view(job))
        else:
            self._error(f"no route {url.path!r}", 404)

    def _read_json(self) -> Dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request body required")
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body too large ({length} bytes)")
        try:
            payload = json.loads(self.rfile.read(length))
        except json.JSONDecodeError as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload
