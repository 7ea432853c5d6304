"""Partial-sweep resume through the result store.

The acceptance scenario: a 6-variant sweep is aborted after two
completions; re-running it against the same store must (a) restore the
two finished variants without recomputing anything — no SCF, no
propagation, proven by a poisoned ``run_scf`` and by per-run FFT
tallies — and (b) produce an :class:`EnsembleResult` identical to the
uninterrupted run, bit for bit.
"""

import json

import numpy as np
import pytest

from repro.api import SimulationConfig, SweepConfig, run_ensemble
from repro.api.cli import main as cli_main
from repro.store import ResultStore

BASE = {
    "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "lda"},
    "scf": {"nbands": 20, "density_tol": 1e-4, "max_scf": 40},
    "field": {"kind": "static_kick", "params": {"kick": 0.001}},
    "propagation": {"propagator": "ptim", "dt_as": 50.0, "n_steps": 2},
}

KICKS = [0.001, 0.002, 0.003, 0.004, 0.005, 0.006]


@pytest.fixture(scope="module")
def base_config():
    return SimulationConfig.from_dict(BASE)


@pytest.fixture(scope="module")
def sweep_config():
    return SweepConfig.from_dict({"axes": {"field.params.kick": KICKS}})


@pytest.fixture(scope="module")
def uninterrupted(base_config, sweep_config):
    """The reference: the same 6-variant sweep run start to finish."""
    return run_ensemble(base_config, sweep_config)


class _Abort(Exception):
    pass


def _abort_after(n_ok):
    """A progress callback that kills the sweep after ``n_ok`` completions."""
    seen = {"ok": 0}

    def progress(message):
        if message.startswith("run") and ": ok" in message:
            seen["ok"] += 1
            if seen["ok"] >= n_ok:
                raise _Abort(f"killed after {n_ok} completions")

    return progress


def test_interrupted_sweep_resumes_without_recomputation(
    tmp_path, base_config, sweep_config, uninterrupted, monkeypatch
):
    store_dir = tmp_path / "study"

    # -- phase 1: abort the sweep after two completed variants -------------
    with pytest.raises(_Abort):
        run_ensemble(
            base_config, sweep_config, progress=_abort_after(2), store=store_dir
        )

    store = ResultStore.ensure(store_dir)
    completed = store.query(status="ok")
    assert len(completed) == 2
    assert len(store.blobs.ground_state_addresses()) == 1  # one shared SCF
    store.close()

    # -- phase 2: resume; completed variants must not recompute ------------
    import repro.api.simulation as sim_mod
    import repro.serve.worker as worker_mod

    # the shared SCF is in the store's blob cache: converging again is a bug
    def _no_scf(*args, **kwargs):
        raise AssertionError("run_scf called during resume: SCF was recomputed")

    monkeypatch.setattr(sim_mod, "run_scf", _no_scf)

    # record exactly which variants execute a propagation
    executed = []
    real_run_one = worker_mod.run_one

    def counting_run_one(sim, *args, **kwargs):
        executed.append(float(sim.config.field.params["kick"]))
        return real_run_one(sim, *args, **kwargs)

    monkeypatch.setattr(worker_mod, "run_one", counting_run_one)

    messages = []
    resumed = run_ensemble(
        base_config, sweep_config, progress=messages.append, store=store_dir
    )

    restored_kicks = {r.overrides["field.params.kick"] for r in resumed.runs[:2]}
    assert sorted(executed) == sorted(set(KICKS) - restored_kicks)
    assert len(executed) == 4
    assert sum(": restored from store" in m for m in messages) == 2

    # -- phase 3: the resumed ensemble equals the uninterrupted one --------
    assert [r.status for r in resumed.runs] == [r.status for r in uninterrupted.runs]
    assert [r.config for r in resumed.runs] == [r.config for r in uninterrupted.runs]
    for ours, ref in zip(resumed.runs, uninterrupted.runs):
        assert set(ours.arrays) == set(ref.arrays)
        for key in ref.arrays:
            assert ours.arrays[key].dtype == ref.arrays[key].dtype, (ours.index, key)
            assert np.array_equal(ours.arrays[key], ref.arrays[key]), (ours.index, key)
        # per-run FFT tallies match the reference exactly: the restored
        # runs carry their *stored* counts (nothing re-transformed), the
        # re-run ones recompute to the identical tally
        assert ours.fft == ref.fft, ours.index
    # every recorded field but elapsed (wall time: restored runs keep the
    # stored one) equals the uninterrupted run's
    assert resumed.base_config == uninterrupted.base_config
    assert resumed.sweep == uninterrupted.sweep
    fields = ("index", "overrides", "config", "status", "error", "fft", "parallel")
    for ours, ref in zip(resumed.runs, uninterrupted.runs):
        for name in fields:
            assert getattr(ours, name) == getattr(ref, name), (ours.index, name)

    # a second resume restores everything: the sweep is fully durable
    fully = run_ensemble(base_config, sweep_config, store=store_dir)
    assert all(r.ok for r in fully.runs)
    assert len(executed) == 4  # no new propagation ran


def test_failed_runs_are_requeued(tmp_path, base_config, monkeypatch):
    sweep = SweepConfig.from_dict({"axes": {"field.params.kick": [0.001, 0.002]}})
    store_dir = tmp_path / "study"

    import repro.serve.worker as worker_mod

    real_run_one = worker_mod.run_one
    calls = {"n": 0}

    def flaky_run_one(sim, *args, **kwargs):
        calls["n"] += 1
        if float(sim.config.field.params["kick"]) == 0.002:
            raise RuntimeError("transient failure")
        return real_run_one(sim, *args, **kwargs)

    monkeypatch.setattr(worker_mod, "run_one", flaky_run_one)
    first = run_ensemble(base_config, sweep, store=store_dir)
    assert [r.status for r in first.runs] == ["ok", "error"]
    store = ResultStore.ensure(store_dir)
    assert [r.status for r in store.query()] == ["ok", "error"]
    store.close()

    monkeypatch.setattr(worker_mod, "run_one", real_run_one)
    second = run_ensemble(base_config, sweep, store=store_dir)
    assert all(r.ok for r in second.runs)  # the error row was re-queued
    store = ResultStore.ensure(store_dir)
    assert [r.status for r in store.query()] == ["ok", "ok"]
    store.close()


def test_store_backed_sweep_on_worker_pool(tmp_path, base_config, monkeypatch):
    """``workers=2`` persists full runs from the worker processes, and a
    second call on the finished store restores them without spawning."""
    sweep = SweepConfig.from_dict({"axes": {"field.params.kick": [0.001, 0.002]}})
    store_dir = tmp_path / "study"
    result = run_ensemble(base_config, sweep, workers=2, store=store_dir)
    assert all(r.ok for r in result.runs)
    store = ResultStore.ensure(store_dir)
    runs = store.query(status="ok")
    assert len(runs) == 2
    for run in runs:
        back = store.load_result(run.run_id)  # the run file is there and parses
        assert back.final_state.phi.size > 0
        assert back.fft is not None and back.fft.transforms > 0
    store.close()

    from repro.serve.pool import WorkerPool

    def _no_spawn(self):
        raise AssertionError("a finished sweep must not start workers")

    monkeypatch.setattr(WorkerPool, "start", _no_spawn)
    messages = []
    again = run_ensemble(
        base_config, sweep, workers=2, store=store_dir, progress=messages.append
    )
    assert all(r.ok for r in again.runs)
    assert sum(": restored from store" in m for m in messages) == 2
    for ours, ref in zip(again.runs, result.runs):
        for key, arr in ref.arrays.items():
            assert np.array_equal(ours.arrays[key], arr), key


def test_worker_pool_isolates_a_raising_and_a_killed_variant(
    tmp_path, base_config, monkeypatch
):
    """A variant that raises and a variant whose spawned worker is SIGKILLed
    mid-propagation each end as one ``error`` record after a single attempt;
    the rest finish, and nothing is left half-done."""
    import os
    import signal
    import threading
    import time

    import repro.serve.pool as pool_mod
    from repro.serve.queue import JobQueue
    from repro.store import run_id_for

    sweep = SweepConfig.from_dict(
        {
            "mode": "zip",
            "axes": {
                # an option is checked only when its run starts: max_scf = 0 raises
                "propagation.options.max_scf": [30, 0, 30],
                "propagation.n_steps": [2, 2, 5000],  # the last one never finishes
            },
        }
    )
    store_dir = tmp_path / "study"
    ResultStore(store_dir).close()
    victim = run_id_for(
        base_config.replace(propagation={"options": {"max_scf": 30}, "n_steps": 5000})
    )

    # The calling process computes too, and whoever is free takes the next
    # job: left to the race, this process finishes its first variant before
    # the child is up about one run in three, claims the victim, and the
    # killer below SIGKILLs pytest.  So it sits on its first claim until the
    # spawned worker has the victim.
    real_execute_job = pool_mod.execute_job

    def execute_once_the_victim_is_taken(store, queue, job, backoff):
        deadline = time.monotonic() + 240.0
        while queue.get(victim).status == "queued" and time.monotonic() < deadline:
            time.sleep(0.02)
        taken = queue.get(victim)
        assert taken.status != "queued" and taken.worker != job.worker
        return real_execute_job(store, queue, job, backoff)

    monkeypatch.setattr(pool_mod, "execute_job", execute_once_the_victim_is_taken)

    def kill_victims_worker():
        queue = JobQueue(store_dir)
        try:
            deadline = time.monotonic() + 240.0
            while time.monotonic() < deadline:
                job = queue.get(victim)
                if job and job.status == "running" and job.progress > 0.0:
                    pids = {w["worker_id"]: w["pid"] for w in queue.workers()}
                    os.kill(pids[job.worker], signal.SIGKILL)
                    return
                time.sleep(0.05)
        finally:
            queue.close()

    killer = threading.Thread(target=kill_victims_worker)
    killer.start()
    result = run_ensemble(base_config, sweep, workers=2, store=store_dir)
    killer.join(timeout=10.0)
    assert not killer.is_alive()

    assert [r.status for r in result.runs] == ["ok", "error", "error"]
    assert "propagation.options.max_scf" in result.runs[1].error
    assert "died" in result.runs[2].error
    store = ResultStore.ensure(store_dir)
    assert sorted(r.status for r in store.query()) == ["error", "error", "ok"]
    assert store.query(status="running") == []
    assert list(store.blobs.ground_states_dir.glob("*.lock")) == []
    store.close()
    queue = JobQueue(store_dir)
    jobs = {job.run_id: job for job in queue.jobs()}
    queue.close()
    assert sorted(job.status for job in jobs.values()) == ["error", "error", "ok"]
    assert all(job.attempts == 1 for job in jobs.values())


def test_cli_sweep_store_resume(tmp_path, capsys):
    """``repro sweep --store`` end-to-end: second invocation restores all."""
    config = dict(BASE)
    config["sweep"] = {"axes": {"field.params.kick": [0.001, 0.002]}}
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    store_dir = str(tmp_path / "study")

    assert cli_main(["sweep", str(config_path), "--store", store_dir]) == 0
    first = capsys.readouterr().out
    assert "2/2 runs ok" in first and "restored" not in first

    assert cli_main(["sweep", str(config_path), "--store", store_dir]) == 0
    second = capsys.readouterr().out
    assert "2/2 runs ok" in second
    assert second.count("restored from store") == 2

    # the stored runs are visible to the query CLI
    assert cli_main(["jobs", "ls", store_dir, "--status", "ok"]) == 0
    listing = capsys.readouterr().out
    assert "2 run(s)" in listing
