"""The ground-state lease is a kernel lock: ``flock`` on the group's ``.lock``.

Every leg publishes the committed golden LDA ground state instead of
converging one, so what is timed is never physics; a holder is a spawned
process (module-level target, pickled by name) because the facts under
test are the kernel's: who is let through, and what a killed holder
leaves behind.
"""

import multiprocessing as mp
import os
import signal
import sys
import threading
import time
from pathlib import Path

import make_golden
import pytest

from repro.api import SimulationConfig
from repro.store import ResultStore
from repro.store.lease import coalesced_ground_state, exclusive, holders

CONFIG = make_golden.CONFIGS["ptim"]


@pytest.fixture()
def config():
    return SimulationConfig.from_dict(CONFIG)


@pytest.fixture()
def store(tmp_path):
    store = ResultStore(tmp_path / "study")
    yield store
    store.close()


def _locks(store):
    return list(store.blobs.ground_states_dir.glob("*.lock"))


def _wait_for(path, timeout_s=60.0):
    deadline = time.monotonic() + timeout_s
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert path.exists(), f"{path.name} never appeared"


def _hold_and_hang(root: str, marker: str) -> None:
    """Take the group's lease, say so, and never converge."""

    def converge():
        open(marker, "w").close()
        time.sleep(600.0)

    store = ResultStore(root, create=False)
    coalesced_ground_state(store, SimulationConfig.from_dict(CONFIG), converge)


def _converge_logged(root: str, log: str, ready: str, start: str) -> None:
    """One racer: report in, wait for the gun, then ask for the ground state."""

    def converge():
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        os.write(fd, f"{os.getpid()}\n".encode())
        os.close(fd)
        time.sleep(0.2)  # every other racer reaches the lock meanwhile
        return make_golden.load_ground_state(CONFIG)

    store = ResultStore(root, create=False)
    try:
        Path(ready).touch()
        _wait_for(Path(start))
        gs = coalesced_ground_state(store, SimulationConfig.from_dict(CONFIG), converge)
        assert gs.orbitals.size > 0
    finally:
        store.close()


def test_killed_holder_hands_the_lease_to_the_waiter(store, config, tmp_path):
    """SIGKILL mid-``converge``: the kernel drops the lock, the waiter is let
    through at once (there is no timeout to run out), converges in the dead
    holder's place and publishes the group's one blob."""
    marker = tmp_path / "holding"
    holder = mp.get_context("spawn").Process(
        target=_hold_and_hang, args=(str(store.root), str(marker)), daemon=True
    )
    holder.start()
    try:
        _wait_for(marker)
        assert len(_locks(store)) == 1
        calls = []
        got = []
        killed = threading.Event()

        def converge():
            calls.append(killed.is_set())
            return make_golden.load_ground_state(CONFIG)

        waiter = threading.Thread(
            target=lambda: got.append(coalesced_ground_state(store, config, converge))
        )
        waiter.start()
        waiter.join(timeout=0.3)
        assert waiter.is_alive() and calls == []  # blocked behind a live holder
        killed.set()
        os.kill(holder.pid, signal.SIGKILL)
        waiter.join(timeout=30.0)
        assert not waiter.is_alive()
    finally:
        holder.kill()
        holder.join(timeout=10.0)
    assert calls == [True]  # converged once, and only once the holder was killed
    assert len(got) == 1 and got[0].orbitals.size > 0
    assert len(store.blobs.ground_state_addresses()) == 1
    assert _locks(store) == []


def test_threads_of_one_process_exclude_each_other(store, config):
    """Each call opens its own file description, so ``flock`` also serialises
    the threads of one process (a job service's handler threads, a sweep
    beside it): more threads than cores, one ``converge``."""
    n_threads = 6
    barrier = threading.Barrier(n_threads)
    inside = []
    calls = []
    got = []

    def converge():
        inside.append(1)
        calls.append(len(inside))
        time.sleep(0.1)
        inside.pop()
        return make_golden.load_ground_state(CONFIG)

    def racer():
        barrier.wait(timeout=30.0)
        got.append(coalesced_ground_state(store, config, converge))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=racer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert calls == [1]  # one caller converged, alone
    assert len(got) == n_threads
    assert len(store.blobs.ground_state_addresses()) == 1
    assert _locks(store) == []


def test_processes_racing_on_one_group_converge_once(store, config, tmp_path):
    log, start = tmp_path / "converged.log", tmp_path / "go"
    ctx = mp.get_context("spawn")
    ready = [tmp_path / f"ready{i}" for i in range(3)]
    racers = [
        ctx.Process(
            target=_converge_logged, args=(str(store.root), str(log), str(r), str(start))
        )
        for r in ready
    ]
    for p in racers:
        p.start()
    try:
        for r in ready:
            _wait_for(r)
        start.touch()
        for p in racers:
            p.join(timeout=120.0)
    finally:
        for p in racers:
            p.kill()
    assert [p.exitcode for p in racers] == [0] * len(racers)
    assert len(log.read_text().split()) == 1
    assert len(store.blobs.ground_state_addresses()) == 1
    assert _locks(store) == []
    assert store.load_ground_state(config) is not None


def test_a_raising_converge_publishes_nothing_and_frees_the_lease(store, config):
    def boom():
        raise RuntimeError("scf diverged")

    with pytest.raises(RuntimeError, match="scf diverged"):
        coalesced_ground_state(store, config, boom)
    assert store.blobs.ground_state_addresses() == []
    assert _locks(store) == []
    gs = coalesced_ground_state(store, config, lambda: make_golden.load_ground_state(CONFIG))
    assert gs.orbitals.size > 0 and _locks(store) == []


def test_a_hit_unlinks_the_lock_a_holder_killed_after_publishing_left(store, config):
    """A holder killed between publishing the blob and dropping the lease
    leaves its lock file; the next caller finds the blob and removes it."""
    gs = coalesced_ground_state(store, config, lambda: make_golden.load_ground_state(CONFIG))
    stale = store.blobs.ground_states_dir / f"{store.blobs.ground_state_addresses()[0]}.lock"
    stale.touch()  # what the kill leaves: nobody holds it
    again = coalesced_ground_state(store, config, lambda: pytest.fail("the blob is published"))
    assert again.orbitals.shape == gs.orbitals.shape and _locks(store) == []


def test_holders_lists_each_held_lock_with_its_pid_and_unlinks_the_free(tmp_path):
    """A held ``*.lock`` is listed by name with its holder's pid and start
    time, also over the longer note a killed holder left in the same file;
    a free one is unlinked."""
    (tmp_path / "w0.lock").write_text(f"{2**22} {time.time() - 1e6!r} and more\n")
    (tmp_path / "gone.lock").write_text("123 1.0\n")
    before = time.time()
    with exclusive(tmp_path / "w0.lock"):
        ((name, (pid, started)),) = holders(tmp_path).items()
        assert (name, pid) == ("w0", os.getpid()) and before <= started <= time.time()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["w0.lock"]
    assert holders(tmp_path) == {} and list(tmp_path.iterdir()) == []
