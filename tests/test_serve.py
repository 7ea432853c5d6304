"""repro.serve: queue semantics, coalesced SCF, supervision, HTTP API.

The heavy end-to-end checks share one module-scoped service run: four
jobs (three sharing a ``(system, scf, backend)`` ground-state group)
go through a real server on an ephemeral port with four spawned
workers, and the assertions then pick the run apart — statuses, blob
counts, bitwise parity against direct :meth:`Simulation.run`.  The
queue unit tests start no pool (one spawns a child that holds a
worker's lock until it is SIGKILLed); what a killed worker, stored run
or server leaves is the crash matrix's (``tests/test_crash_matrix.py``).
"""

import contextlib
import json
import multiprocessing as mp
import os
import re
import signal
import sqlite3
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.api import Simulation, SimulationConfig, SimulationResult
from repro.serve import JobQueue, JobService, ServeClient, ServeError
from repro.serve.http import MAX_BODY_BYTES
from repro.serve.queue import TERMINAL_STATUSES
from repro.store import ResultStore, group_address, run_id_for

BASE = {
    "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "lda"},
    "scf": {"nbands": 20, "density_tol": 1e-4, "max_scf": 40},
    "field": {"kind": "static_kick", "params": {"kick": 0.001}},
    "propagation": {"propagator": "ptim", "dt_as": 50.0, "n_steps": 2},
}


def make_config(kick=0.001, nbands=None, n_steps=None) -> SimulationConfig:
    data = json.loads(json.dumps(BASE))
    data["field"]["params"]["kick"] = kick
    if nbands is not None:
        data["scf"]["nbands"] = nbands
    if n_steps is not None:
        data["propagation"]["n_steps"] = n_steps
    return SimulationConfig.from_dict(data)


# ---------------------------------------------------------------------------
# the shared end-to-end run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    """One live service, four jobs submitted over HTTP, all waited to done.

    Three configs differ only in the kick strength (same ground-state
    group); the fourth changes ``scf.nbands`` and needs its own SCF.
    """
    root = tmp_path_factory.mktemp("serve") / "store"
    configs = [
        make_config(kick=0.001),
        make_config(kick=0.002),
        make_config(kick=0.003),
        make_config(kick=0.001, nbands=16),
    ]
    service = JobService(root, port=0, workers=4, backoff=0.2)
    service.start()
    client = ServeClient(service.url)
    submitted = [client.submit(cfg) for cfg in configs]
    finals = [client.wait(j["job_id"], timeout_s=300.0) for j in submitted]
    yield {
        "root": root,
        "configs": configs,
        "service": service,
        "client": client,
        "submitted": submitted,
        "finals": finals,
    }
    service.stop()


def test_e2e_all_jobs_ok(e2e):
    for job in e2e["finals"]:
        assert job["status"] == "ok", job.get("error")
        assert job["run_id"]
        assert job["progress"] == 1.0
    # four distinct configs -> four distinct jobs and runs
    assert len({j["job_id"] for j in e2e["finals"]}) == 4
    assert len({j["run_id"] for j in e2e["finals"]}) == 4


def test_e2e_one_ground_state_blob_per_group(e2e):
    """Three coalescing jobs left exactly one blob for their group."""
    store = ResultStore(e2e["root"], create=False)
    try:
        addresses = store.blobs.ground_state_addresses()
    finally:
        store.close()
    shared = group_address(e2e["configs"][0])
    other = group_address(e2e["configs"][3])
    assert group_address(e2e["configs"][1]) == shared
    assert group_address(e2e["configs"][2]) == shared
    assert sorted(addresses) == sorted([shared, other])


def test_e2e_results_bitwise_identical_to_direct_run(e2e):
    """Served results must be the same bytes a direct run produces, and
    each run's stored FFT tally the direct run's."""
    store = ResultStore(e2e["root"], create=False)
    try:
        for config, job in zip(e2e["configs"], e2e["finals"]):
            direct = Simulation(config).run()
            stored = store.load_result(job["run_id"]).observables()
            for name, expected in direct.observables().items():
                got = stored[name]
                assert got.dtype == np.asarray(expected).dtype
                assert np.array_equal(got, expected), (job["run_id"], name)
            assert store.load_result(job["run_id"]).fft == direct.fft, job["run_id"]
    finally:
        store.close()


def test_e2e_resubmit_is_idempotent_and_instant(e2e):
    job = e2e["client"].submit(e2e["configs"][0])
    assert job["job_id"] == e2e["finals"][0]["job_id"]
    assert job["status"] == "ok"
    assert job["run_id"] == e2e["finals"][0]["run_id"]


def test_e2e_job_detail_carries_history_and_config(e2e):
    detail = e2e["client"].job(e2e["finals"][0]["job_id"])
    assert detail["config"] == e2e["configs"][0].to_dict()
    outcomes = [a["outcome"] for a in detail["history"]]
    assert outcomes[-1] == "ok"


def test_e2e_fetch_round_trips_result_npz(e2e, tmp_path):
    """``GET /jobs/<id>/result`` streams the stored run file itself."""
    job = e2e["finals"][0]
    path = e2e["client"].fetch(job["job_id"], tmp_path / "out.npz")
    stored = e2e["root"] / "runs" / f"{job['run_id']}.npz"
    with np.load(path, allow_pickle=False) as got, np.load(stored, allow_pickle=False) as want:
        assert set(got.files) == set(want.files)
        for key in want.files:
            assert np.array_equal(got[key], want[key]), key
        assert got["times"].shape == (BASE["propagation"]["n_steps"] + 1,)
    config, arrays = SimulationResult.load_npz(path, expected_config=e2e["configs"][0])
    assert "dipole" in arrays and "final_phi" in arrays
    assert [p.name for p in tmp_path.iterdir()] == ["out.npz"]  # no .part left


def test_e2e_stats_and_healthz(e2e):
    health = e2e["client"].healthz()
    assert health["ok"] is True
    stats = e2e["client"].stats()
    assert stats["jobs"]["ok"] >= 4
    assert stats["stored_runs"] >= 4
    assert stats["ground_state_blobs"] == 2
    assert len(stats["workers"]) == 4


def test_e2e_unknown_job_is_404(e2e):
    with pytest.raises(ServeError) as err:
        e2e["client"].job("jdeadbeef0000")
    assert err.value.status == 404
    with pytest.raises(ServeError) as err:
        e2e["client"].cancel("jdeadbeef0000")
    assert err.value.status == 404


def test_e2e_negative_paging_is_400(e2e):
    """``GET /jobs`` refuses a negative ``limit`` or ``offset`` by name."""
    for page, name in (({"limit": -1}, "limit"), ({"limit": 2, "offset": -3}, "offset")):
        with pytest.raises(ServeError, match=f"{name} must be >= 0") as err:
            e2e["client"].jobs(**page)
        assert err.value.status == 400


def test_e2e_jobs_ls_filters_by_where_against_a_url(e2e, capsys):
    """``GET /jobs`` takes the store's filters: ``jobs ls URL --where``
    lists the one run of that kick, and the client's typed filters (a
    number, a string, a creation window) select as the store's do."""
    from repro.api.cli import main

    url, client = e2e["service"].url, e2e["client"]
    assert main(["jobs", "ls", url, "--where", "field.params.kick=0.002"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines[1:-1]] == [[e2e["finals"][1]["job_id"], "ok"]]
    assert lines[-1] == f"1 run(s) in {url}"
    wanted = [e2e["finals"][3]["job_id"]]
    assert [r.run_id for r in client.query(where={"scf.nbands": 16, "propagation.propagator": "ptim"})] == wanted
    created = max(view["created"] for view in client.jobs())
    assert client.query(since=created + 60.0) == [] and len(client.query(until=created)) >= 4


@pytest.mark.parametrize(
    "query, refusal",
    [
        ("where=nokey", "--where filter 'nokey' must look like dotted.config.key=value"),
        ("since=yesterday", "bad timestamp 'yesterday'"),
        ("until=2026-13-01", "bad timestamp '2026-13-01'"),
        ("stauts=ok", "unknown filter(s) stauts; valid: status, where, since, until, limit, offset"),
    ],
    ids=["where", "since", "until", "unknown"],
)
def test_e2e_a_bad_jobs_filter_is_400_naming_it(e2e, query, refusal):
    """The server parses ``GET /jobs``'s filters with the CLI's parsers, so
    a filter it cannot read, or does not know, is a 400 that names it."""
    with pytest.raises(ServeError, match=re.escape(refusal)) as err:
        e2e["client"]._json(f"/jobs?{query}")
    assert err.value.status == 400


def test_get_jobs_filters_are_the_queue_query_arguments():
    """``GET /jobs`` knows exactly the filters :meth:`JobQueue.jobs` takes."""
    import inspect

    from repro.serve.http import FILTERS

    assert FILTERS == tuple(inspect.signature(JobQueue.jobs).parameters)[1:]


def test_e2e_jobs_reads_a_directory_and_its_server_alike(e2e, capsys):
    """``jobs ls`` and ``jobs show`` print the same lines for one store read
    by directory and by URL, apart from the target's name: the view is the
    row, and both targets print through one printer."""
    from repro.api.cli import main

    url, root = e2e["service"].url, str(e2e["root"])
    job_id = e2e["finals"][0]["job_id"]
    printed = {}
    for target in (root, url):
        assert main(["jobs", "ls", target, "--status", "ok"]) == 0
        listing = capsys.readouterr().out.replace(target, "TARGET")
        assert main(["jobs", "show", target, job_id, "--config"]) == 0
        printed[target] = listing, capsys.readouterr().out
    assert printed[root] == printed[url]
    listing, shown = printed[url]
    assert listing.splitlines()[-1] == "4 run(s) in TARGET"
    assert "  attempt 1: ok on " in shown and "FFTs: " in shown and "dipole_x" in shown


def test_e2e_submit_wait_prints_the_rows_as_jobs_ls_does(e2e, tmp_path, capsys):
    """``submit --wait`` prints the finished rows through the listing printer."""
    from repro.api.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(e2e["configs"][1].to_json())
    assert main(["submit", str(cfg), "--url", e2e["service"].url, "--wait"]) == 0
    lines = capsys.readouterr().out.splitlines()
    job_id = e2e["finals"][1]["job_id"]
    assert lines[0].split() == [job_id, "ok", "(base)"]
    assert lines[1].split()[:3] == ["run", "id", "status"]
    assert lines[2].split()[:3] == [job_id, "ok", "1"] and len(lines) == 3


def test_e2e_bad_submit_is_400(e2e):
    with pytest.raises(ServeError) as err:
        e2e["client"]._json("/jobs", payload={"nonsense": 1})
    assert err.value.status == 400


def _post_jobs(url, body: bytes, length=None):
    """``POST /jobs`` with ``body`` raw and a ``Content-Length`` of
    ``length`` (default: the body's); the reply's status and error."""
    from http.client import HTTPConnection
    from urllib.parse import urlparse

    where = urlparse(url)
    conn = HTTPConnection(where.hostname, where.port, timeout=30)
    try:
        conn.putrequest("POST", "/jobs")
        conn.putheader("Content-Length", str(len(body) if length is None else length))
        conn.endheaders(body)
        reply = conn.getresponse()
        return reply.status, json.loads(reply.read())["error"]
    finally:
        conn.close()


@pytest.mark.parametrize(
    "body, length, refusal",
    [
        (b"", None, "request body required"),
        (b"", MAX_BODY_BYTES + 1, f"request body too large ({MAX_BODY_BYTES + 1} bytes)"),
        (b'{"config": ', None, "request body is not valid JSON: "),
        (b"[1, 2]", None, "request body must be a JSON object"),
        (b'{"config": {}, "priority": 9}', None, "unknown field(s) priority; valid: config, max_attempts, timeout"),
        (b'{"config": {"system": 5}}', None, "config section 'system' must be a mapping or SystemConfig, got int"),
    ],
    ids=["empty", "too-large", "not-json", "not-an-object", "unknown-field", "section-not-an-object"],
)
def test_e2e_a_bad_jobs_body_is_400_naming_it(e2e, body, length, refusal):
    """A ``POST /jobs`` body the service cannot take is a 400 whose error
    says what is wrong with it; nothing is queued."""
    before = [job["job_id"] for job in e2e["client"].jobs()]
    status, error = _post_jobs(e2e["service"].url, body, length)
    assert status == 400 and error.startswith(refusal), (status, error)
    assert [job["job_id"] for job in e2e["client"].jobs()] == before


def test_an_unknown_component_name_is_400_and_writes_no_row(tmp_path):
    """A misspelled cell is refused when ``POST /jobs`` parses the config,
    naming its key and the valid cells, and no row is written: the job is
    not queued to use up its attempts on a name no worker can build."""
    with JobService(tmp_path / "store", port=0, workers=1) as service:
        body = {"config": {"system": {"cell": "silicon_cubc"}}}
        status, error = _post_jobs(service.url, json.dumps(body).encode())
        assert status == 400
        assert error == (
            "system.cell must be one of 'silicon_cubic', 'silicon_supercell', got 'silicon_cubc'"
        )
        client = ServeClient(service.url)
        assert client.jobs() == []
        assert client.stats()["total_jobs"] == 0


def test_e2e_an_unknown_status_filter_is_400(e2e, capsys):
    from repro.api.cli import main

    with pytest.raises(ServeError, match="unknown status 'bogus'; one of: queued") as err:
        e2e["client"].jobs(status="bogus")
    assert err.value.status == 400
    assert main(["jobs", "ls", e2e["service"].url, "--status", "bogus"]) == 2
    assert capsys.readouterr().err.startswith("error: unknown status 'bogus'")


_REFUSED_POLICY = [
    ("max_attempts", 0),
    ("max_attempts", -2),
    ("max_attempts", 2.7),
    ("max_attempts", True),
    ("timeout", -5),
    ("timeout", True),
]


@pytest.mark.parametrize(
    "route, field, value",
    [
        pytest.param(route, field, value, id=f"{prefix}{field}-{value}")
        for route, prefix in (("body", ""), ("client", "client-"))
        for field, value in _REFUSED_POLICY
    ],
)
def test_e2e_submit_refuses_job_policy_serve_would_refuse(e2e, route, field, value):
    """``max_attempts`` and ``timeout`` obey ``serve.retries`` and
    ``serve.timeout``: neither is truncated, and a boolean is not a count;
    the 400 names the field, whether the value comes in a raw body or
    through ``ServeClient.submit``."""
    config = e2e["configs"][0]
    with pytest.raises(ServeError, match=field) as err:
        if route == "client":
            e2e["client"].submit(config, **{field: value})
        else:
            e2e["client"]._json("/jobs", payload={"config": config.to_dict(), field: value})
    assert err.value.status == 400


def test_e2e_cancel_then_result_is_409(e2e):
    """Cancelling a live job sticks, and its result stays unavailable."""
    client = e2e["client"]
    config = make_config(kick=0.009, n_steps=400)
    job = client.submit(config)
    assert job["status"] in ("queued", "running")
    # a wait that runs out names the job and the status it is still in
    with pytest.raises(ServeError, match=rf"job {job['job_id']} still (queued|running) after 0s"):
        client.wait(job["job_id"], timeout_s=0.0)
    cancelled = client.cancel(job["job_id"])
    assert cancelled["status"] == "cancelled"
    with pytest.raises(ServeError) as err:
        client.fetch(job["job_id"], e2e["root"].parent / "never.npz")
    assert err.value.status == 409
    # the terminal state is stable: the worker (if one had claimed it)
    # cannot flip the job back to ok
    time.sleep(0.5)
    assert client.job(job["job_id"])["status"] == "cancelled"


# ---------------------------------------------------------------------------
# queue unit tests (no worker processes)
# ---------------------------------------------------------------------------


@pytest.fixture()
def queue(tmp_path):
    ResultStore.ensure(tmp_path / "store").close()
    q = JobQueue(tmp_path / "store")
    yield q
    q.close()


def test_queue_submit_is_idempotent(queue):
    config = make_config()
    first, created = queue.submit(config)
    again, created_again = queue.submit(config)
    assert (created, created_again) == (True, False)
    assert first.run_id == again.run_id == run_id_for(config)
    assert again.status == "queued"
    assert queue.counts()["queued"] == 1


def test_queue_submit_with_run_id_is_born_ok(queue):
    config = make_config()
    queue.finish_ok(config)  # the store holds this config's run
    stored = queue.get(run_id_for(config))
    job, created = queue.submit(config)
    assert not created
    assert job.status == "ok"
    assert job.run_id == run_id_for(config)
    assert job.progress == 1.0
    assert job == stored  # the ok row is the cache hit, returned untouched
    assert queue.claim("w0") is None


def test_queue_claim_consumes_attempt_and_orders_fifo(queue):
    config_a = make_config(kick=0.001)
    config_b = make_config(kick=0.002)
    queue.submit(config_a)
    queue.submit(config_b)
    job = queue.claim("w0")
    assert job.run_id == run_id_for(config_a)
    assert job.status == "running"
    assert job.attempts == 1
    assert [j.run_id for j in queue.open_on(["w0"])] == [job.run_id]


def test_queue_failed_attempt_requeues_with_backoff(queue):
    queue.submit(make_config(), max_attempts=3)
    job = queue.claim("w0")
    failed = queue.fail_attempt(job.run_id, "boom", backoff=30.0)
    assert failed.status == "queued"
    assert failed.error == "boom"
    assert failed.not_before > time.time() + 10.0
    assert queue.claim("w0") is None  # backoff still holds


def test_queue_exhausted_attempts_land_in_error(queue):
    queue.submit(make_config(), max_attempts=1)
    job = queue.claim("w0")
    failed = queue.fail_attempt(job.run_id, "boom", backoff=0.0)
    assert failed.status == "error"
    assert queue.claim("w0") is None
    history = queue.attempts(job.run_id)
    assert [a["outcome"] for a in history] == ["error"]


def test_queue_resubmit_rearms_failed_job(queue):
    config = make_config()
    queue.submit(config, max_attempts=1)
    queue.fail_attempt(queue.claim("w0").run_id, "boom", backoff=0.0)
    rearmed, created = queue.submit(config, max_attempts=2)
    assert created
    assert rearmed.status == "queued"
    assert rearmed.attempts == 0
    assert rearmed.max_attempts == 2
    assert rearmed.error is None


def test_queue_cancel_blocks_finish(queue):
    config = make_config()
    queue.submit(config)
    job = queue.claim("w0")
    prior = queue.cancel(job.run_id)
    assert prior.status == "running"  # the row before the transition
    # a worker that raced past the cancel cannot resurrect the job
    queue.finish_ok(config)
    assert queue.get(job.run_id).status == "cancelled"
    assert queue.get(job.run_id).status in TERMINAL_STATUSES
    # but it did reach the end of it: the attempt is closed
    assert [a["outcome"] for a in queue.attempts(job.run_id)] == ["cancelled"]
    assert queue.open_on(["w0"]) == []


def test_a_cancelled_job_that_fails_closes_its_attempt_cancelled(queue):
    queue.submit(make_config())
    job = queue.claim("w0")
    queue.cancel(job.run_id)
    assert queue.fail_attempt(job.run_id, "boom").status == "cancelled"
    assert [a["outcome"] for a in queue.attempts(job.run_id)] == ["cancelled"]
    assert queue.open_on(["w0"]) == []


@pytest.mark.parametrize("left_by", ["a killed stored run", "a departed claimer"])
def test_recover_closes_a_cancelled_rows_attempt_on_a_gone_worker(queue, left_by):
    """A row cancelled after its worker died unreaped (a stored run killed
    outright, a claimer gone) closes its attempt ``cancelled`` on the next
    supervisor pass: no attempt stays open on a worker nobody can reap any
    more."""
    config = make_config()
    if left_by == "a killed stored run":
        row = queue.begin(config)  # bare: the row a SIGKILL leaves
    else:
        queue.submit(config)
        row = queue.claim("w-departed")
    assert queue.cancel(row.run_id).status == "running"
    assert queue.recover() == 0  # nothing to requeue
    assert queue.get(row.run_id).status == "cancelled"
    history = queue.attempts(row.run_id)
    assert [(a["outcome"], a["finished"] is not None) for a in history] == [("cancelled", True)]
    assert queue.open_on([row.worker]) == [] and queue.workers() == []


def test_an_event_the_lifecycle_has_no_row_for_is_refused(queue):
    """``_move`` refuses, by run, event and status, a call the table has
    no row for (a programming error, not a race); nothing is written."""
    from repro.store import StoreError

    run_id = queue.submit(make_config())[0].run_id
    refused = f"run '{run_id}': the job lifecycle has no 'finish' from 'queued'"
    with pytest.raises(StoreError, match=refused):
        queue._txn(lambda conn: queue._move(conn, run_id, "finish", time.time()))
    assert (queue.get(run_id).status, queue.attempts(run_id)) == ("queued", [])


def test_queue_refuses_an_unknown_job_by_id(queue):
    """Cancelling or failing an attempt of a job the queue does not have is
    refused naming the id (``POST /jobs/<id>/cancel`` answers 404 first)."""
    from repro.store import StoreError

    with pytest.raises(StoreError, match="queue has no job 'jnope'"):
        queue.cancel("jnope")
    with pytest.raises(StoreError, match="queue has no job 'jnope'"):
        queue.fail_attempt("jnope", "boom")
    assert queue.get("jnope") is None


def test_client_names_a_server_it_cannot_reach(capsys):
    """Nothing listens on port 9 (discard): the client says where it looked."""
    from repro.api.cli import main

    with pytest.raises(ServeError, match=r"cannot reach job server at http://127\.0\.0\.1:9 "):
        ServeClient("http://127.0.0.1:9", timeout_s=5.0).healthz()
    assert main(["jobs", "ls", "http://127.0.0.1:9"]) == 2
    assert "error: cannot reach job server at http://127.0.0.1:9" in capsys.readouterr().err


def test_queue_deadline_set_only_with_timeout(queue):
    queue.submit(make_config(kick=0.001), timeout=0.0)
    queue.submit(make_config(kick=0.002), timeout=0.01)
    no_deadline = queue.claim("w0")
    with_deadline = queue.claim("w1")
    assert no_deadline.deadline is None
    assert with_deadline.deadline is not None
    time.sleep(0.05)
    expired = queue.expired()
    assert [j.run_id for j in expired] == [with_deadline.run_id]


@contextlib.contextmanager
def _pass_over_cancelled_rows(queue, monkeypatch, attempt_open):
    """One supervisor pass of a one-worker pool over 1 000 cancelled rows
    naming other workers and one naming its own, whose attempt is open
    (the worker is still on the job) or closed ``cancelled`` (it reached
    the end and is idle).  Yields the pool, its worker and the rows read."""
    import sqlite3

    import repro.serve.queue as queue_module
    from repro.serve.pool import WorkerPool

    pool = WorkerPool(str(queue.root), queue, n_workers=1, backoff=0.0)
    own = f"{pool.tag}w0g1"
    conn = sqlite3.connect(queue.path)
    with conn:
        conn.executemany(
            "INSERT INTO jobs (run_id, config_hash, status, worker, attempts, created, "
            "updated, config_json) VALUES (?, '', 'cancelled', ?, 1, ?, ?, '{}')",
            [(f"r{i:012x}", own if i == 0 else f"gone{i % 7}", i, i) for i in range(1001)],
        )
        conn.execute(
            "INSERT INTO job_attempts (run_id, attempt, worker, started, finished, outcome) "
            "VALUES (?, 1, ?, 0.0, ?, ?)",
            (f"r{0:012x}", own, *((None, None) if attempt_open else (1.0, "cancelled"))),
        )
    conn.close()
    read = []
    decode = queue_module._row
    monkeypatch.setattr(queue_module, "_row", lambda record: read.append(record[0]) or decode(record))
    pool.start()
    try:
        pool.tick()
        yield pool, own, read
    finally:
        pool.stop()


def test_a_supervisor_pass_reads_only_its_own_workers_cancelled_rows(queue, monkeypatch):
    """The supervisor's cost does not grow with the study's history, and
    an idle worker whose cancelled job's attempt is closed survives the
    pass: no row is read, nothing is killed."""
    with _pass_over_cancelled_rows(queue, monkeypatch, attempt_open=False) as (pool, own, read):
        assert read == []
        assert pool.pid_of(own) is not None
        assert pool.pid_of(f"{pool.tag}w0g2") is None


def test_a_supervisor_pass_replaces_a_worker_still_on_a_cancelled_job(queue, monkeypatch):
    """A worker whose cancelled job's attempt is still open is on it: the
    pass reads only that row of the 1 001, replaces the worker and closes
    the attempt ``cancelled`` as it reaps it."""
    with _pass_over_cancelled_rows(queue, monkeypatch, attempt_open=True) as (pool, own, read):
        assert set(read) == {f"r{0:012x}"}
        assert pool.pid_of(f"{pool.tag}w0g2") is not None  # killed and respawned
        assert [a["outcome"] for a in queue.attempts(f"r{0:012x}")] == ["cancelled"]


@pytest.mark.parametrize("pid_of", ["reaped", "reused"])
def test_queue_recover_requeues_running_jobs(queue, pid_of):
    """A worker whose lock nobody holds is gone, whatever pid its lock file
    names: no process (a reaped child), or an unrelated live one (a reused
    pid).  The lock file its killed holder left goes."""
    other = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    if pid_of == "reaped":
        other.kill()
        other.wait()  # reaped: its pid names no process
    left = queue.root / "workers" / "w0.lock"
    try:
        queue.submit(make_config())
        job = queue.claim("w0")
        left.parent.mkdir()
        left.write_text(f"{other.pid} {time.time()!r}\n")
        assert queue.recover() == 1
    finally:
        other.kill()
        other.wait()
    assert not left.exists()
    requeued = queue.get(job.run_id)
    assert requeued.status == "queued"
    assert requeued.attempts == 1  # consumed attempt stays consumed
    assert requeued.not_before == 0.0
    assert queue.workers() == []
    outcomes = [a["outcome"] for a in queue.attempts(job.run_id)]
    assert outcomes == ["interrupted"]


@pytest.mark.parametrize("end", ["ok", "failed"])
def test_workers_report_the_row_each_one_runs(queue, end):
    """A worker's state and job are read off the ``running`` row naming it."""
    config = make_config()
    queue.submit(config)

    def state():
        return [(w["worker_id"], w["state"], w["job_id"]) for w in queue.workers()]

    with queue.serving("w0"):
        assert state() == [("w0", "idle", None)]
        job = queue.claim("w0")
        assert state() == [("w0", "busy", job.run_id)]
        if end == "ok":
            queue.finish_ok(config)
        else:
            queue.fail_attempt(job.run_id, "boom")
        assert state() == [("w0", "idle", None)]
    assert state() == []


def _serve_forever(root, worker_id):
    """A spawned child's body: hold ``worker_id``'s lock until killed."""
    queue = JobQueue(root)
    with queue.serving(worker_id):
        time.sleep(600.0)


def test_a_worker_is_its_lock_file(queue):
    """A child holding ``serving("w0")`` is listed with its own pid and
    registered nowhere else; SIGKILLed, one ``recover()`` pass leaves no
    lock file and no worker."""
    child = mp.get_context("spawn").Process(target=_serve_forever, args=(str(queue.root), "w0"))
    child.start()
    try:
        deadline = time.monotonic() + 60.0
        while not queue.workers():
            assert time.monotonic() < deadline, "the child never took its lock"
            time.sleep(0.02)
        (listed,) = queue.workers()
        assert set(listed) == {"worker_id", "pid", "started", "state", "job_id"}
        assert (listed["worker_id"], listed["pid"], listed["state"]) == ("w0", child.pid, "idle")
        with contextlib.closing(sqlite3.connect(queue.path)) as conn:
            assert conn.execute("SELECT COUNT(*) FROM workers").fetchone() == (0,)
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=30.0)
        assert child.exitcode == -signal.SIGKILL
        queue.recover()
        assert list((queue.root / "workers").iterdir()) == [] and queue.workers() == []
    finally:
        child.kill()
        child.join(timeout=30.0)


@pytest.mark.parametrize("run", ["live", "killed"])
def test_booting_service_leaves_a_live_run_its_row(tmp_path, run):
    """Boot requeues by the supervisor's rule: a row a stored run of this
    (live) process is recording stays ``running``, its attempt open; the
    row a killed run left (begun, its lock gone) is requeued."""
    root = tmp_path / "store"
    ResultStore.ensure(root).close()
    config = make_config(kick=0.003)
    queue = JobQueue(root)
    try:
        with contextlib.ExitStack() as stack:
            if run == "live":
                row = stack.enter_context(queue.recording(config))
            else:
                row = queue.begin(config)
            with JobService(root, port=0, workers=0) as service:
                assert service.recovered == (run == "killed")
                status = queue.get(row.run_id).status
                assert status == ("running" if run == "live" else "queued")
        outcome = None if run == "live" else "interrupted"
        assert [a["outcome"] for a in queue.attempts(row.run_id)] == [outcome]
    finally:
        queue.close()


def test_a_rerun_closes_the_attempt_a_killed_run_left_open(tmp_path):
    """A stored run that finds the row a killed one left ``running``
    closes that attempt ``interrupted`` before it starts its own, as a
    supervisor's pass would have: no attempt stays open for good."""
    from repro.api.runs import run_one

    store = ResultStore.ensure(tmp_path / "store")
    config = make_config(kick=0.004)
    try:
        store.queue.begin(config)  # the row a killed stored run leaves
        run_one(Simulation(config), store)
        assert store.queue.recover() == 0
        history = store.queue.attempts(run_id_for(config))
        assert [a["outcome"] for a in history] == ["interrupted", "ok"]
        assert all(a["finished"] for a in history)
    finally:
        store.close()


def test_queue_requires_existing_store(tmp_path):
    from repro.store import StoreError

    with pytest.raises(StoreError):
        JobQueue(tmp_path / "nowhere")
