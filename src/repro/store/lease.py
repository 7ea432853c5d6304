"""One SCF per shared group, across processes: the ground-state lease.

Configs that share a ``(system, scf, backend-engine)``
:func:`~repro.store.common.group_key` need the same converged ground
state.  Within one process that is an object handed around; across the
worker processes of a parallel sweep or a job service — possibly both at
once, on one store — it takes an election: the first process to reach a
group takes a lease (an ``O_EXCL`` lock file next to the blob it guards),
converges, and publishes the blob through the store; the rest poll for
the blob instead of burning cores on identical SCFs.  Every caller that
needs a group's ground state exactly once goes through
:func:`coalesced_ground_state`.

The protocol is safe even when it degrades:

- a leaseholder that dies leaves a lock file whose pid is gone — the
  next caller detects the stale lease, steals it, and converges;
- a waiter that times out simply converges independently — the blob
  write is content-addressed and idempotent (first writer wins), so a
  duplicate SCF wastes time but can never corrupt the cache or produce
  a second blob.
"""

from __future__ import annotations

import os
import time
from typing import Callable

from repro.api.config import SimulationConfig
from repro.scf.groundstate import GroundState
from repro.store.common import group_address, pid_alive

#: how long a waiter polls for the leaseholder's blob before giving up
#: and converging independently
WAIT_S = 600.0

#: poll interval while waiting on another process's SCF
POLL_S = 0.2


class GroundStateLease:
    """The SCF lease file for one shared-SCF group."""

    def __init__(self, store, config: SimulationConfig) -> None:
        gs_dir = store.blobs.ground_states_dir
        gs_dir.mkdir(parents=True, exist_ok=True)
        self.path = gs_dir / f"{group_address(config)}.lock"

    def try_acquire(self) -> bool:
        """Take the lease if free (or stale); never blocks."""
        for _ in range(2):  # second try after clearing a stale lease
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if not self._holder_alive():
                    self.release()
                    continue
                return False
            with os.fdopen(fd, "w") as fh:
                fh.write(str(os.getpid()))
            return True
        return False

    def _holder_alive(self) -> bool:
        try:
            pid = int(self.path.read_text().strip() or "0")
        except (FileNotFoundError, ValueError):
            # mid-write or already released — treat as live briefly; the
            # waiter's poll loop re-checks
            return True
        return pid_alive(pid)

    def release(self) -> None:
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


def coalesced_ground_state(
    store, config: SimulationConfig, converge: Callable[[], GroundState]
) -> GroundState:
    """The group's ground state — from the blob, a peer, or ``converge()``.

    Exactly one concurrent caller per group runs ``converge()`` in the
    happy path; its result is published as the group's content-addressed
    blob before the lease drops, so every waiter (and every later run)
    loads instead of recomputing.
    """
    lease = None
    deadline = time.monotonic() + WAIT_S
    while True:
        cached = store.load_ground_state(config)
        if cached is not None:
            return cached
        # a dead holder's lease is stolen here; past the deadline the
        # caller converges without it — wasteful but safe, the blob put
        # is idempotent
        lease = lease or GroundStateLease(store, config)
        held = lease.try_acquire()
        if held or time.monotonic() >= deadline:
            try:
                # the blob may have landed between the check above and
                # the lease (a holder releasing just then)
                cached = store.load_ground_state(config)
                if cached is None:
                    cached = converge()
                    store.put_ground_state(config, cached)
                return cached
            finally:
                if held:
                    lease.release()
        time.sleep(POLL_S)
