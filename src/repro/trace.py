"""Where a process's seconds go: one span recorder, always on.

A layer names its span once, where it is defined: ``@traced("rt.step")``
on a callable, ``with span("api.run") as elapsed:`` around a block
(``elapsed()`` reads the open span's seconds so far).  The process's
:class:`Recorder` keeps, per span name, the calls, the total seconds and
the self seconds (total minus the spans opened inside it), plus the
seconds of top-level spans, so it grows with the number of names and not
with the length of a run.  :meth:`Recorder.snapshot` and
:meth:`Recorder.since` attribute one run, as
:class:`~repro.backend.FFTCounters` do; a test swaps in a fresh recorder
with :func:`recording`, which also installs a given recorder (a
subclass that acts on a span's entry or exit).

This is the one module that reads ``time.perf_counter``.  Each thread
nests its own spans (the serve HTTP threads open ``serve.*`` spans while
the main thread works); the tallies are shared and updated without a
lock, so two threads closing a span at the same instant can lose an
update, never raise.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, TypeVar

_clock = time.perf_counter

F = TypeVar("F", bound=Callable)


class SpanStats(NamedTuple):
    calls: int
    total_s: float
    self_s: float


class Recorder:
    """Per-name tallies of closed spans, plus each thread's open spans."""

    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self._tally: Dict[str, List] = {}
        #: seconds of the spans opened while none was open on their thread
        self.top_s = 0.0
        self._threads = threading.local()

    def _open(self, name: str) -> List[float]:
        """The calling thread's open spans (each one's child seconds so
        far), with one more pushed for span ``name``."""
        try:
            stack = self._threads.stack
        except AttributeError:
            stack = self._threads.stack = []
        stack.append(0.0)
        return stack

    def _close(self, name: str, start: float, stack: List[float]) -> None:
        seconds = _clock() - start
        inner = stack.pop()
        if stack:
            stack[-1] += seconds
        else:
            self.top_s += seconds
        row = self._tally.get(name)
        if row is None:
            row = self._tally[name] = [0, 0.0, 0.0]
        row[0] += 1
        row[1] += seconds
        row[2] += seconds - inner

    def snapshot(self) -> Dict[str, SpanStats]:
        """The closed spans' tallies so far, by name."""
        return {name: SpanStats(*row) for name, row in list(self._tally.items())}

    def since(self, earlier: Dict[str, SpanStats]) -> Dict[str, SpanStats]:
        """Tallies of the spans closed after the ``earlier`` snapshot."""
        none = SpanStats(0, 0.0, 0.0)
        out = {}
        for name, now in self.snapshot().items():
            was = earlier.get(name, none)
            if now.calls != was.calls:
                out[name] = SpanStats(*(a - b for a, b in zip(now, was)))
        return out


_active = Recorder()


def recorder() -> Recorder:
    """The process's recorder."""
    return _active


@contextmanager
def recording(recorder: Optional[Recorder] = None) -> Iterator[Recorder]:
    """Record into ``recorder`` (default a fresh one) for the block (a span
    open at either edge closes where it opened).  A subclass sees every
    span's entry in :meth:`Recorder._open` and its exit in
    :meth:`Recorder._close`."""
    global _active
    previous, _active = _active, Recorder() if recorder is None else recorder
    try:
        yield _active
    finally:
        _active = previous


def traced(name: str) -> Callable[[F], F]:
    """Record every call of the decorated callable as span ``name``."""

    def decorate(fn: F) -> F:
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            rec = _active
            stack = rec._open(name)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(name, start, stack)

        return timed  # type: ignore[return-value]

    return decorate


@contextmanager
def span(name: str) -> Iterator[Callable[[], float]]:
    """Record the block as span ``name``; yields its seconds-so-far reader."""
    rec = _active
    stack = rec._open(name)
    start = _clock()
    try:
        yield lambda: _clock() - start
    finally:
        rec._close(name, start, stack)
