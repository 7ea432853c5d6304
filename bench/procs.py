"""Nothing the benchmark starts outlives it.

A run starts sidecars, set-up probes, pool children and service workers,
and each of those is stopped where it was started.  Two kinds of process
escape that: the ``multiprocessing`` resource tracker, which a *spawn*
pool starts behind the scenes and which ends only once its parent has
gone, and anything orphaned by a child that died early.  Left to the
system they linger for a moment after the command has returned, running
or as zombies, adopted by whatever ``init`` the host has.

:func:`owning_descendants` makes the calling process the reaper of every
orphan below it and, on the way out, stops the tracker, ends whatever is
still alive and waits for all of it.  Standard library only, so it is
in force before numpy or ``repro`` are imported.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

_PR_SET_CHILD_SUBREAPER = 36

#: a child still alive this long after SIGTERM is killed
_GRACE_S = 2.0


def _children() -> List[int]:
    """Live or zombie processes whose parent is this one."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                # "<pid> (<comm>) <state> <ppid> ..."; comm may hold spaces and brackets
                fields = stat.read().rpartition(")")[2].split()
        except OSError:  # gone between listdir and open
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def _reap() -> None:
    try:
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass
    except ChildProcessError:
        pass


def _end_children(spare: Optional[int] = None) -> None:
    """SIGTERM, then SIGKILL, every child but ``spare`` until none is left."""
    signalled: Dict[int, int] = {}
    started = time.monotonic()
    while True:
        _reap()
        alive = [pid for pid in _children() if pid != spare]
        if not alive:
            return
        # orphans of a child that ends are adopted by this process and seen next pass
        sig = signal.SIGTERM if time.monotonic() - started < _GRACE_S else signal.SIGKILL
        for pid in alive:
            if signalled.get(pid) != sig:
                signalled[pid] = sig
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        time.sleep(0.02)


def end_descendants() -> None:
    """Stop and wait for every process below this one; returns when none is left."""
    from multiprocessing import resource_tracker

    # the tracker ignores SIGTERM and ends when the last copy of its pipe is
    # closed, so it goes last, after the workers that inherited a copy
    tracker = resource_tracker._resource_tracker
    _end_children(spare=getattr(tracker, "_pid", None))
    try:
        tracker._stop()
    except (AttributeError, OSError):
        pass
    _end_children()


@contextmanager
def owning_descendants() -> Iterator[None]:
    """On leaving the block, by return or by exception, no descendant is left."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # not Linux: direct children are still ended below
        pass
    # a polite kill takes the same way out as an exception
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
        end_descendants()
