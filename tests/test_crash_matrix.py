"""The crash matrix: a computing process SIGKILLed once at a named span.

Each case runs one tiny job (``CONFIG``) and kills its process where
:mod:`repro.trace` opens or closes the ``nth`` span of a name, through
:class:`FaultRecorder` (the only hook); its marker file makes the fault
one-shot.  The process is a pool worker (``pool``), ``run_ensemble(workers=1)``
(``drain``, retried by the next call) or ``run_one(sim, store)``
(``stored``, requeued for the pool); a ``cancel`` case stalls a pool worker
and cancels its job, and a ``serve`` case stalls the worker of a service
in its own process group and SIGKILLs the group (the service and its
workers at once, as an OOM kill of the host does), then boots the service
again.  A span a case names in ``unrun`` must not open once the fault
fired.  After the retry and one more supervisor pass,
:func:`_assert_recovered` checks one invariant set.
"""

import contextlib
import functools
import os
import signal
import subprocess
import sys
import time
from typing import NamedTuple, Tuple

import numpy as np
import pytest

import repro.serve.pool as pool_module
from repro.api import Simulation, SimulationConfig, SweepConfig, run_ensemble
from repro.serve import JobService
from repro.serve.queue import TERMINAL_STATUSES
from repro.store import group_address, run_id_for
from repro.store.lease import held
from repro.trace import Recorder, recording

CONFIG = {
    "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "lda"},
    "scf": {"nbands": 20, "density_tol": 1e-4, "max_scf": 40},
    "field": {"kind": "static_kick", "params": {"kick": 0.001}},
    "propagation": {"propagator": "ptim", "dt_as": 50.0, "n_steps": 2},
}
ONE_POINT = SweepConfig.from_dict({"axes": {"field.params.kick": [0.001]}})


class Case(NamedTuple):
    kind: str  # "pool", "cancel" (a pool worker), "drain", "stored" or "serve"
    span: str
    edge: str  # "entry" or "exit"
    nth: int = 1
    history: Tuple[str, ...] = ("crashed", "ok")  # the attempts' outcomes at the end
    leftover: str = ""  # where under the store the kill leaves a temp file
    unrun: Tuple[str, ...] = ()  # spans the retry must not open


CASES = [
    Case("pool", "api.run", "entry"),
    Case("pool", "store.find_completed", "exit"),
    Case("pool", "scf.run_scf", "entry"),  # the group's lease held
    Case("pool", "scf.run_scf", "exit"),
    Case("pool", "store.put_ground_state", "entry"),
    Case("pool", "store.put_ground_state", "exit"),
    Case("pool", "io.savez", "exit", 1, leftover="blobs/ground_states"),
    Case("pool", "io.savez", "exit", 2, leftover="runs"),
    Case("pool", "rt.step", "entry", 2),
    Case("pool", "store.add_result", "entry"),
    Case("pool", "store.add_result", "exit", history=("ok",)),  # the row is ok first
    # the result file renamed into place, the row still running: the retry
    # finishes the row from the file, computing nothing
    Case("pool", "serve.queue.finish", "entry", unrun=("scf.run_scf", "rt.step")),
    Case("drain", "serve.queue.submit", "exit", history=("ok",)),
    Case("drain", "rt.step", "entry", 2, ("interrupted", "ok")),
    Case("stored", "rt.step", "entry", 2, ("interrupted", "ok")),
    Case("cancel", "rt.step", "entry", 2, ("cancelled",)),
    Case("serve", "rt.step", "entry", 2, ("interrupted", "ok")),
]


class FaultRecorder(Recorder):
    """Dies at ``case``'s span edge unless the marker exists; a ``cancel``
    or ``serve`` case waits there instead, to be killed by the test.  Once
    the marker exists, a span of ``case.unrun`` leaves a file beside it."""

    def __init__(self, case: Case, marker: str) -> None:
        super().__init__()
        self.case, self.marker, self.seen = case, marker, 0

    def _open(self, name):
        self._reach(name, "entry")
        return super()._open(name)

    def _close(self, name, start, stack):
        super()._close(name, start, stack)
        self._reach(name, "exit")

    def _reach(self, name: str, edge: str) -> None:
        if edge == "entry" and name in self.case.unrun and os.path.exists(self.marker):
            open(f"{self.marker}.{name}", "w").close()
        if (name, edge) == (self.case.span, self.case.edge):
            self.seen += 1
            if self.seen == self.case.nth and not os.path.exists(self.marker):
                open(self.marker, "x").close()  # so the retry runs clean
                if self.case.kind in ("cancel", "serve"):
                    time.sleep(600.0)
                os.kill(os.getpid(), signal.SIGKILL)


def _faulted_worker(case, marker, *args):
    """The pool's spawn target in a case: the worker, under the fault."""
    from repro.serve.worker import worker_main

    with recording(FaultRecorder(case, marker)):
        worker_main(*args)


@pytest.fixture(scope="module")
def unfaulted():
    return Simulation(SimulationConfig.from_dict(CONFIG)).run()


def _supervise(tick, done):
    """Supervisor passes (``tick``) until ``done()``, then one more."""
    deadline = time.monotonic() + 120.0
    while not done():
        assert time.monotonic() < deadline, "the job never settled"
        tick()
        time.sleep(0.02)
    tick()


def _assert_recovered(service, job_id, case, unfaulted):
    queue, store, root = service.queue, service.store, service.store.root
    locks = root / "workers"
    # rows name lock holders; each lock file is held
    assert all(held(locks / f"{job.worker}.lock") for job in queue.jobs(status="running"))
    assert all(held(lock) for lock in list(locks.glob("*.lock")))

    row, history = queue.get(job_id), queue.attempts(job_id)
    assert row.attempts == len(history) and all(a["finished"] for a in history)
    assert tuple(a["outcome"] for a in history) == case.history
    assert [run.run_id for run in store.query()] == [job_id]
    assert store.blobs.ground_state_addresses() == [group_address(unfaulted.config)]
    assert list((root / "blobs" / "ground_states").glob("*.lock")) == []  # no lease outlives it
    # the kill's temp file is where the case says, and counted by neither
    temps = {p.parent.relative_to(root).as_posix() for p in root.rglob("*") if ".tmp" in p.name}
    assert temps == ({case.leftover} if case.leftover else set())
    runs = [p.name for p in (root / "runs").glob("*.npz") if ".tmp" not in p.name]
    if case.kind == "cancel":
        assert row.status == "cancelled" and runs == []
        return
    assert runs == [f"{job_id}.npz"]
    assert row.status == "ok", row.error
    got, want = (
        {**r.observables(), **vars(r.final_state)} for r in (store.load_result(job_id), unfaulted)
    )
    assert [k for k in want if not np.array_equal(got[k], want[k])] == []  # bitwise


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c.kind}-{c.span}-{c.edge}-{c.nth}")
def test_a_killed_process_leaves_what_its_retry_completes(case, tmp_path, monkeypatch, unfaulted):
    marker, config = tmp_path / "fired", SimulationConfig.from_dict(CONFIG)
    job_id = run_id_for(config)
    monkeypatch.setattr(
        pool_module, "_worker_process", functools.partial(_faulted_worker, case, str(marker))
    )
    # two workers: the one the fault kills, and one already up to retry
    service = JobService(tmp_path / "store", port=0, workers=2, backoff=0.0)
    pool, queue, root = service.pool, service.queue, service.store.root
    first = [f"{pool.tag}w{slot}g1" for slot in range(pool.n_workers)]
    try:
        if case.kind in ("pool", "cancel"):
            service.submit(config)
        else:
            args = [str(CASES.index(case)), str(marker), str(root)]
            env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
            process = subprocess.Popen(
                [sys.executable, __file__, *args], env=env, start_new_session=True
            )
            try:
                if case.kind == "serve":
                    _supervise(lambda: None, marker.exists)
                    os.killpg(process.pid, signal.SIGKILL)
                assert process.wait(timeout=120.0) == -signal.SIGKILL
                # and the group's last process is gone with it: no lock is held
                _supervise(lambda: None, lambda: not any(map(held, root.glob("workers/*.lock"))))
            finally:
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(process.pid, signal.SIGKILL)
        if case.kind == "serve":  # the boot requeues the row the killed service's worker held
            service.start()
            assert service.stats()["recovered_on_boot"] == 1
        elif case.kind == "drain":
            result = run_ensemble(config, ONE_POINT, workers=1, store=root)
            assert [run.status for run in result.runs] == ["ok"]
        else:
            if case.kind == "stored":  # a submit finds the row the killed run left
                row, created = service.submit(config)
                assert (row.status, created) == ("running", False)
                assert row.worker.startswith(f"p{process.pid}t") and row.worker.endswith("run")
            pool.start()
        if case.kind == "cancel":
            _supervise(pool.tick, marker.exists)
            assert service.cancel(job_id).status == "cancelled"

        def settled():  # and a faulted pool worker is reaped and replaced
            done = queue.get(job_id).status in TERMINAL_STATUSES
            faulted_elsewhere = case.kind in ("drain", "stored", "serve")
            return done and (faulted_elsewhere or None in map(pool.pid_of, first))

        # a booted service supervises its pool itself
        _supervise((lambda: None) if case.kind == "serve" else pool.tick, settled)
        assert marker.exists()  # the fault did fire
        assert list(tmp_path.glob(f"{marker.name}.*")) == []  # the retry ran no span of unrun
        _assert_recovered(service, job_id, case, unfaulted)
    finally:
        service.stop()


if __name__ == "__main__":  # a drain, stored or serve case's process: this_file.py i marker root
    from repro.api.runs import run_one

    case, config, root = CASES[int(sys.argv[1])], SimulationConfig.from_dict(CONFIG), sys.argv[3]
    if case.kind == "serve":  # one worker, under the fault; the test kills the group
        pool_module._worker_process = functools.partial(_faulted_worker, case, sys.argv[2])
        JobService(root, port=0, workers=1, backoff=0.0).start().submit(config)
        time.sleep(600.0)
    else:
        with recording(FaultRecorder(case, sys.argv[2])):
            if case.kind == "drain":
                run_ensemble(config, ONE_POINT, workers=1, store=root)
            else:
                run_one(Simulation(config), root)
