"""One SCF per shared group, across processes: the ground-state lease.

Configs that share a ``(system, scf, backend-engine)``
:func:`~repro.store.common.group_key` need the same converged ground
state.  Within one process that is an object handed around; across the
computing processes of a parallel sweep (the caller and its spawned
workers) or of a job service — possibly both at once, on one store — it
takes an election: every process that finds no blob blocks on an
exclusive ``flock`` of the group's ``.lock`` file next to the blob it
guards.  The one the kernel lets through converges and publishes the
blob through the store; the rest are woken by the kernel the moment it
lets go, find the blob, and load it instead of burning cores on
identical SCFs.  Every caller that needs a group's ground state exactly
once goes through :func:`coalesced_ground_state`.

The lock belongs to the holder's open file description, so there is no
liveness to guess at and nothing to time out: a holder that is killed,
SIGKILL included, has its descriptor closed by the kernel and the next
waiter converges in its place.  Threads of one process exclude each other
too (each call opens its own description).  The lock is advisory and
local: a store on a network filesystem whose ``flock`` does not reach
other hosts degrades to one SCF per host, and the blob write is
content-addressed and idempotent (first writer wins), so a duplicate SCF
wastes time but can never corrupt the cache or produce a second blob.

The same lock tells whether a job row's worker is alive: it holds
:func:`exclusive` on its lock file while a row can name it, and a
supervisor asks :func:`held` (on a network filesystem as above, a worker
on another host is taken for dead).
"""

from __future__ import annotations

import contextlib
import fcntl
import os
from typing import TYPE_CHECKING, Callable, Iterator

from repro.api.config import SimulationConfig
from repro.store.common import group_address

if TYPE_CHECKING:
    from repro.scf.groundstate import GroundState


@contextlib.contextmanager
def exclusive(path) -> Iterator[None]:
    """Hold ``flock(LOCK_EX)`` on the file at ``path``; gone from disk after."""
    while True:
        fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            # the holder before us unlinked the file it held: what we
            # locked may no longer be what the next acquirer opens
            if os.path.samestat(os.fstat(fd), os.stat(path)):
                break
        except FileNotFoundError:
            pass
        except BaseException:
            os.close(fd)
            raise
        os.close(fd)
    try:
        yield
    finally:
        # unlinked while still held, so nobody can lock the name in between
        # and be left holding a file that is about to disappear
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
        os.close(fd)


def held(path) -> bool:
    """Whether someone holds ``flock`` on the file at ``path``: a
    non-blocking probe that unlinks a file it finds free, as
    :func:`exclusive` unlinks its own, so no stale file outlives it."""
    while True:
        try:
            fd = os.open(path, os.O_RDWR)
        except FileNotFoundError:
            return False
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            # a file replaced meanwhile has a new holder: probe it afresh
            if os.path.samestat(os.fstat(fd), os.stat(path)):
                os.unlink(path)
                return False
        except BlockingIOError:
            return True
        except FileNotFoundError:
            return False
        finally:
            os.close(fd)


def coalesced_ground_state(
    store, config: SimulationConfig, converge: Callable[[], GroundState]
) -> GroundState:
    """The group's ground state — from the blob, a peer, or ``converge()``.

    Exactly one concurrent caller per group runs ``converge()``; its
    result is published as the group's content-addressed blob before the
    lock drops, so every waiter (and every later run) loads instead of
    recomputing.  A ``converge()`` that raises publishes nothing and the
    next waiter tries for itself.
    """
    lock = store.blobs.ground_states_dir / f"{group_address(config)}.lock"
    cached = store.load_ground_state(config)
    if cached is not None:
        held(lock)  # unlinks the lock of a holder killed after it published
        return cached
    lock.parent.mkdir(parents=True, exist_ok=True)
    with exclusive(lock):
        cached = store.load_ground_state(config)
        if cached is None:
            cached = converge()
            store.put_ground_state(config, cached)
        return cached
