"""repro.serve: queue semantics, coalesced SCF, crash retry, HTTP API.

The heavy end-to-end checks share one module-scoped service run: four
jobs (three sharing a ``(system, scf, backend)`` ground-state group)
go through a real server on an ephemeral port with four spawned
workers, and the assertions then pick the run apart — statuses, blob
counts, bitwise parity against direct :meth:`Simulation.run`.  The
crash/restart tests boot their own short-lived services; the queue
unit tests never spawn a process at all.
"""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro.api import Simulation, SimulationConfig, SimulationResult
from repro.serve import JobQueue, JobService, ServeClient, ServeError
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


def test_e2e_bad_submit_is_400(e2e):
    with pytest.raises(ServeError) as err:
        e2e["client"]._json("/jobs", payload={"nonsense": 1})
    assert err.value.status == 400


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_attempts", 0),
        ("max_attempts", -2),
        ("max_attempts", 2.7),
        ("max_attempts", True),
        ("timeout", -5),
        ("timeout", True),
    ],
)
def test_e2e_submit_refuses_job_policy_serve_would_refuse(e2e, field, value):
    """``max_attempts`` and ``timeout`` obey ``serve.retries`` and
    ``serve.timeout``: neither is truncated, and a boolean is not a count;
    the 400 names the field."""
    payload = {"config": e2e["configs"][0].to_dict(), field: value}
    with pytest.raises(ServeError, match=field) as err:
        e2e["client"]._json("/jobs", payload=payload)
    assert err.value.status == 400


def test_e2e_cancel_then_result_is_409(e2e):
    """Cancelling a live job sticks, and its result stays unavailable."""
    client = e2e["client"]
    config = make_config(kick=0.009, n_steps=400)
    job = client.submit(config)
    assert job["status"] in ("queued", "running")
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
# crash recovery
# ---------------------------------------------------------------------------


def test_sigkilled_worker_job_is_retried_to_completion(tmp_path):
    """SIGKILL mid-propagation: the supervisor respawns and retries."""
    root = tmp_path / "store"
    config = make_config(kick=0.005, n_steps=60)
    store = ResultStore.ensure(root)
    # prime the ground-state cache so both attempts are propagation-only
    store.put_ground_state(config, Simulation(config).ground_state())
    store.close()

    with JobService(root, port=0, workers=1, backoff=0.0) as service:
        client = ServeClient(service.url)
        job_id = client.submit(config)["job_id"]
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            job = client.job(job_id)
            if job["status"] == "running" and job["progress"] > 0.0:
                break
            time.sleep(0.02)
        else:
            pytest.fail(f"job never started propagating: {job}")
        pid = service.pool.pid_of(job["worker"])
        assert pid is not None
        os.kill(pid, signal.SIGKILL)
        final = client.wait(job_id, timeout_s=300.0)
        assert final["status"] == "ok", final.get("error")
        assert final["attempts"] == 2
        outcomes = [a["outcome"] for a in client.job(job_id)["history"]]
        assert outcomes == ["crashed", "ok"]


def test_a_killed_stored_run_is_requeued_by_a_live_service(tmp_path):
    """``repro run --store`` SIGKILLed beside a running service: its row is
    left ``running``, the service's supervisor finds the run's process
    gone and requeues it, and a submit of that config runs it to ``ok``."""
    root = tmp_path / "store"
    config = make_config(kick=0.009, n_steps=60)
    store = ResultStore.ensure(root)
    store.put_ground_state(config, Simulation(config).ground_state())
    store.close()
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config.to_dict()))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}

    with JobService(root, port=0, workers=1, backoff=0.0) as service:
        run = subprocess.Popen(
            [sys.executable, "-m", "repro", "run", str(cfg), "--store", str(root)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120.0
            job = None
            while time.monotonic() < deadline and run.poll() is None:
                job = service.queue.get(run_id_for(config))
                if job is not None and job.status == "running":
                    break
                time.sleep(0.02)
            assert job is not None and job.status == "running", job
            assert job.worker.startswith(f"p{run.pid}t")
        finally:
            run.kill()
            run.wait(timeout=10.0)
        job, created = service.submit(config)
        assert not created and job.run_id == run_id_for(config)
        assert service.wait_all(timeout_s=120.0)
        done = service.queue.get(job.run_id)
        assert (done.status, done.attempts) == ("ok", 2)
        outcomes = [a["outcome"] for a in service.queue.attempts(done.run_id)]
        assert outcomes == ["interrupted", "ok"]


def test_restart_resumes_interrupted_and_queued_jobs(tmp_path):
    """A dead server's running + queued jobs complete after a reboot."""
    root = tmp_path / "store"
    ResultStore.ensure(root).close()
    config_a = make_config(kick=0.006)
    config_b = make_config(kick=0.007)
    queue = JobQueue(root)
    queue.submit(config_a)
    queue.submit(config_b)
    claimed = queue.claim("w-departed")  # simulates a crashed worker
    assert claimed.run_id == run_id_for(config_a)
    queue.close()

    with JobService(root, port=0, workers=2, backoff=0.0) as service:
        assert service.recovered == 1
        assert service.stats()["recovered_on_boot"] == 1
        assert service.wait_all(timeout_s=300.0)
        done_a = service.queue.get(run_id_for(config_a))
        done_b = service.queue.get(run_id_for(config_b))
        assert done_a.status == "ok"
        assert done_b.status == "ok"
        # the interrupted claim consumed the first attempt
        assert done_a.attempts == 2
        outcomes = [a["outcome"] for a in service.queue.attempts(done_a.run_id)]
        assert outcomes == ["interrupted", "ok"]


def test_crash_between_add_result_and_finish_ok_resolves_as_cache_hit(tmp_path, monkeypatch):
    """The worker's promise for a crash after the result is stored but
    before the job is marked ok: the re-run restores the stored run, runs
    neither an SCF nor a propagation, and leaves one run row, one run
    file, one ground-state blob and no temporary file."""
    import repro.api.simulation as simulation
    from repro.serve.worker import execute_job

    root = tmp_path / "store"
    config = make_config(kick=0.008, n_steps=1)
    store = ResultStore.ensure(root)
    queue = JobQueue(root)
    try:
        job_id = queue.submit(config, max_attempts=2)[0].run_id
        finish_ok = JobQueue.finish_ok
        calls = []

        def crash_once(self, config, **result):
            calls.append(run_id_for(config))
            if len(calls) == 1:
                raise RuntimeError("worker died after add_result")
            return finish_ok(self, config, **result)

        monkeypatch.setattr(JobQueue, "finish_ok", crash_once)
        execute_job(store, queue, queue.claim("w0"), 0.0)
        assert queue.get(job_id).status == "queued"

        def recompute(*args, **kwargs):
            pytest.fail("the re-run computed instead of restoring the stored run")

        monkeypatch.setattr(simulation, "run_scf", recompute)
        monkeypatch.setattr(simulation.Simulation, "propagate", recompute)
        execute_job(store, queue, queue.claim("w0"), 0.0)

        job = queue.get(job_id)
        assert job.status == "ok" and job.attempts == 2
        assert [a["outcome"] for a in queue.attempts(job_id)] == ["error", "ok"]
        assert len(calls) == 2 and calls[0] == calls[1] == job.run_id
        assert [run.run_id for run in store.query()] == [job.run_id]
        assert len(list((root / "runs").glob("*.npz"))) == 1
        assert len(store.blobs.ground_state_addresses()) == 1
        assert not [p for p in root.rglob("*") if ".tmp" in p.name]
    finally:
        queue.close()
        store.close()


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
    assert queue.running_for("w0")[0].run_id == job.run_id


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
    assert queue.cancelled_on(["w0"]) == []


def test_a_cancelled_job_that_fails_closes_its_attempt_cancelled(queue):
    queue.submit(make_config())
    job = queue.claim("w0")
    queue.cancel(job.run_id)
    assert queue.fail_attempt(job.run_id, "boom").status == "cancelled"
    assert [a["outcome"] for a in queue.attempts(job.run_id)] == ["cancelled"]
    assert queue.cancelled_on(["w0"]) == []


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
    pass reads that one row of the 1 001 and replaces the worker."""
    with _pass_over_cancelled_rows(queue, monkeypatch, attempt_open=True) as (pool, own, read):
        assert read == [f"r{0:012x}"]
        assert pool.pid_of(f"{pool.tag}w0g2") is not None  # killed and respawned


@pytest.mark.parametrize("pid_of", ["reaped", "reused"])
def test_queue_recover_requeues_running_jobs(queue, pid_of):
    """A worker whose lock nobody holds is gone, whatever its pid names: no
    process (a reaped child), or an unrelated live one (a reused pid).  The
    lock file its killed holder left goes with its registration."""
    other = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    if pid_of == "reaped":
        other.kill()
        other.wait()  # reaped: its pid names no process
    left = queue.root / "workers" / "w0.lock"
    try:
        queue.submit(make_config())
        queue.register_worker("w0", pid=other.pid)
        job = queue.claim("w0")
        left.parent.mkdir()
        left.touch()
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
    queue.register_worker("w0", pid=os.getpid())

    def state():
        return [(w["worker_id"], w["state"], w["job_id"]) for w in queue.workers()]

    assert state() == [("w0", "idle", None)]
    job = queue.claim("w0")
    assert state() == [("w0", "busy", job.run_id)]
    if end == "ok":
        queue.finish_ok(config)
    else:
        queue.fail_attempt(job.run_id, "boom")
    assert state() == [("w0", "idle", None)]


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


def test_queue_requires_existing_store(tmp_path):
    from repro.store import StoreError

    with pytest.raises(StoreError):
        JobQueue(tmp_path / "nowhere")
