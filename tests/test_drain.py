"""``workers = N`` is N computing processes: the caller and N - 1 spawned.

Facts about who ran what, read off the queue's own rows — never
stopwatches.  Every sweep here starts from the committed golden LDA
ground state, put into the store up front, so no leg converges an SCF.
"""

import os
import time

import make_golden
import pytest

from repro.api import SimulationConfig, SweepConfig, run_ensemble
from repro.serve.pool import WorkerPool
from repro.serve.queue import JobQueue
from repro.store import ResultStore

CONFIG = {**make_golden.CONFIGS["ptim"]}
CONFIG["propagation"] = {"propagator": "ptim", "dt_as": 25.0, "n_steps": 1}


@pytest.fixture()
def base():
    return SimulationConfig.from_dict(CONFIG)


@pytest.fixture()
def store_dir(tmp_path, base):
    with_gs = ResultStore(tmp_path / "study")
    with_gs.put_ground_state(base, make_golden.load_ground_state(CONFIG))
    with_gs.close()
    return tmp_path / "study"


def _kicks(n):
    return SweepConfig.from_dict(
        {"axes": {"field.params.kick": [1e-3 * (i + 1) for i in range(n)]}}
    )


def _rows(store_dir):
    queue = JobQueue(store_dir)
    try:
        return queue.jobs(), queue.workers()
    finally:
        queue.close()


def _open_attempts(store_dir):
    """``(run_id, attempt, worker)`` of each attempt with no ``finished``."""
    queue = JobQueue(store_dir)
    try:
        return [
            (job.run_id, a["attempt"], a["worker"])
            for job in queue.jobs()
            for a in queue.attempts(job.run_id)
            if a["finished"] is None
        ]
    finally:
        queue.close()


def _assert_nothing_half_done(store_dir):
    jobs, workers = _rows(store_dir)
    assert [job for job in jobs if job.status == "running"] == []
    assert [w for w in workers if w["pid"] == os.getpid()] == []
    assert _open_attempts(store_dir) == []
    store = ResultStore(store_dir, create=False)
    try:
        assert list(store.blobs.ground_states_dir.glob("*.lock")) == []
        finished = store.query(status="ok")
        for run in finished:
            assert store.load_result(run.run_id).final_state.phi.size > 0
        return len(finished)
    finally:
        store.close()


def _stop_once_listed(monkeypatch):
    """Make ``WorkerPool.stop`` first wait (at most 20 s) until every
    spawned worker holds its lock and is listed by ``workers()``; the
    entries it then stops are appended to the returned list."""
    stopped = []
    real_stop = WorkerPool.stop

    def stop(self):
        deadline = time.monotonic() + 20.0
        while True:
            rows = [w for w in self.queue.workers() if w["worker_id"].startswith(f"{self.tag}w")]
            if len(rows) == len(self._procs) or time.monotonic() > deadline:
                break
            time.sleep(0.02)
        stopped.extend(rows)
        real_stop(self)

    monkeypatch.setattr(WorkerPool, "stop", stop)
    return stopped


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_the_caller_is_one_of_the_workers(store_dir, base, workers, monkeypatch):
    spawned = []
    real_spawn = WorkerPool._spawn

    def counting_spawn(self, slot):
        spawned.append(slot)
        real_spawn(self, slot)

    monkeypatch.setattr(WorkerPool, "_spawn", counting_spawn)
    stopped = _stop_once_listed(monkeypatch)
    result = run_ensemble(base, _kicks(4), workers=workers, store=store_dir)
    assert [r.status for r in result.runs] == ["ok"] * 4
    assert len(spawned) == workers - 1

    jobs, left = _rows(store_dir)
    first = min(jobs, key=lambda job: job.started)
    assert first.worker.endswith("caller")
    if workers == 1:
        assert all(job.worker.endswith("caller") for job in jobs)
    # the children's entries as the pool stopped them say when each
    # came up: after the first job was already running
    assert len(stopped) == workers - 1 and all(w["pid"] != os.getpid() for w in stopped)
    assert all(first.started < w["started"] for w in stopped)
    assert left == []
    assert all(job.attempts == 1 for job in jobs)


def test_a_stopped_pool_leaves_no_worker_behind(store_dir, base, monkeypatch):
    """The pool's SIGTERM unwinds each worker through its ``serving`` block:
    after a ``workers = 2`` stored sweep whose child held its lock, no
    worker is listed and the ``workers/`` directory is empty with no
    ``recover()`` since."""
    stopped = _stop_once_listed(monkeypatch)
    result = run_ensemble(base, _kicks(2), workers=2, store=store_dir)
    assert [r.status for r in result.runs] == ["ok"] * 2
    assert len(stopped) == 1
    _, left = _rows(store_dir)
    assert left == []
    assert list((store_dir / "workers").iterdir()) == []


def test_a_progress_callback_that_raises_leaves_nothing_half_done(store_dir, base):
    """The first ``ok`` line is the caller's own variant (it starts before any
    child is up); aborting there, once the child is on a job of its own,
    stops the child mid-job and keeps what finished."""

    class Abort(Exception):
        pass

    queue = JobQueue(store_dir)
    cut = []

    def progress(line):
        if line.startswith("run") and ": ok" in line:
            deadline = time.monotonic() + 20.0
            while not cut and time.monotonic() < deadline:
                cut.extend(
                    job.run_id for job in queue.jobs(status="running")
                    if not job.worker.endswith("caller")
                )
                time.sleep(0.002)
            raise Abort(line)

    try:
        with pytest.raises(Abort):
            run_ensemble(base, _kicks(4), workers=2, store=store_dir, progress=progress)
    finally:
        queue.close()
    assert cut
    assert _assert_nothing_half_done(store_dir) >= 1
    again = run_ensemble(base, _kicks(4), workers=2, store=store_dir)
    assert [r.status for r in again.runs] == ["ok"] * 4


def test_an_interrupt_in_the_callers_variant_leaves_nothing_half_done(
    store_dir, base, monkeypatch
):
    """Ctrl-C while this process propagates its second variant: the claim is
    given up, the first variant is durable, the next call finishes the rest."""
    import repro.serve.worker as worker_mod

    real_run_one = worker_mod.run_one
    calls = []

    def interrupted_run_one(sim, *args, **kwargs):  # patched in this process only
        calls.append(sim.config.field.params["kick"])
        if len(calls) == 2:
            raise KeyboardInterrupt
        return real_run_one(sim, *args, **kwargs)

    monkeypatch.setattr(worker_mod, "run_one", interrupted_run_one)
    with pytest.raises(KeyboardInterrupt):
        run_ensemble(base, _kicks(5), workers=2, store=store_dir)
    assert len(calls) == 2
    assert _assert_nothing_half_done(store_dir) >= 1
    monkeypatch.setattr(worker_mod, "run_one", real_run_one)
    again = run_ensemble(base, _kicks(5), workers=2, store=store_dir)
    assert [r.status for r in again.runs] == ["ok"] * 5


def test_two_pools_on_one_store_do_not_share_worker_ids(store_dir, base):
    """A sweep beside a service: killing a worker of one pool must not fail
    the job a worker of the other is running (both used to be ``w0g1``)."""
    queue = JobQueue(store_dir)
    ours = WorkerPool(str(store_dir), queue, n_workers=1, backoff=0.0)
    theirs = WorkerPool(str(store_dir), queue, n_workers=1, backoff=0.0)
    config = base.replace(propagation={"n_steps": 12})
    try:
        job_id = queue.submit(config, max_attempts=3)[0].run_id
        theirs.start()
        deadline = time.monotonic() + 120.0
        while queue.get(job_id).status != "running" and time.monotonic() < deadline:
            time.sleep(0.01)
        holder = queue.get(job_id).worker
        assert holder and theirs.pid_of(holder) is not None and ours.pid_of(holder) is None

        ours.start()
        (doomed,) = ours._ids.values()
        assert doomed != holder
        assert ours.kill_worker(doomed)
        ours.tick()  # reaps its own dead worker, and only its own

        while queue.get(job_id).status == "running" and time.monotonic() < deadline:
            theirs.tick()
            time.sleep(0.05)
        job = queue.get(job_id)
        assert (job.status, job.attempts) == ("ok", 1)
        assert [a["outcome"] for a in queue.attempts(job_id)] == ["ok"]
    finally:
        ours.stop()
        theirs.stop()
        queue.close()
