"""What a process did and where its seconds went: one recorder, always on.

A layer names its span once, where it is defined: ``@traced("rt.step")``
on a callable, ``with span("api.run") as elapsed:`` around a block
(``elapsed()`` reads the open span's seconds so far).  The process's
:class:`Recorder` keeps, per span name, the calls, the total seconds and
the self seconds (total minus the spans opened inside it), plus the
seconds of top-level spans, and beside them additive counts,
``count(name, n)``: transforms (``backend.fft.*``), messages
(``parallel.comm.*``) and each simulated rank's transforms.  It grows
with the number of names, not with the length of a run.  A
:class:`Tally` is any slice of it: :meth:`Recorder.snapshot`, one run's
:meth:`Recorder.since` (or a :func:`window`), their :meth:`Tally.merge`,
and its counts under a prefix as JSON.  The counts are the process's:
whatever computes while a window is open lands in it.  A test swaps in a
fresh recorder with :func:`recording`, which also installs a given
recorder (a subclass that acts on a span's entry or exit).

This is the one module that reads ``time.perf_counter``.  Each thread
nests its own spans (the serve HTTP threads open ``serve.*`` spans while
the main thread works); spans and counts are shared and updated without
a lock, so two threads closing a span or counting at the same instant
can lose an update, never raise.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, TypeVar

_clock = time.perf_counter

F = TypeVar("F", bound=Callable)


class SpanStats(NamedTuple):
    calls: int
    total_s: float
    self_s: float


@dataclass
class Tally:
    """A slice of a recorder: span tallies and counts, by name."""

    spans: Dict[str, SpanStats] = field(default_factory=dict)
    counts: Dict[str, Any] = field(default_factory=dict)

    def merge(self, other: "Tally") -> None:
        """Add ``other``'s spans and counts to this slice."""
        for name, stats in other.spans.items():
            was = self.spans.get(name, SpanStats(0, 0.0, 0.0))
            self.spans[name] = SpanStats(*(a + b for a, b in zip(was, stats)))
        for name, n in other.counts.items():
            self.counts[name] = self.counts.get(name, 0) + n

    def to_dict(self, prefix: str) -> Dict[str, Any]:
        """The counts named ``<prefix>.*`` as a tree split at the dots:
        ``backend.fft.by_shape.4x4x4`` is ``["by_shape"]["4x4x4"]`` of
        ``to_dict("backend.fft")`` (JSON-safe when the counts are)."""
        tree: Dict[str, Any] = {}
        for name, n in self.counts.items():
            if not name.startswith(prefix + "."):
                continue
            *path, leaf = name[len(prefix) + 1:].split(".")
            node = tree
            for key in path:
                node = node.setdefault(key, {})
            node[leaf] = n
        return tree

    @classmethod
    def from_dict(cls, prefix: str, tree: Dict[str, Any]) -> "Tally":
        """The counts :meth:`to_dict` made ``tree`` of, named under ``prefix``."""
        out = cls()
        for key, value in tree.items():
            name = f"{prefix}.{key}"
            if isinstance(value, dict):
                out.counts.update(cls.from_dict(name, value).counts)
            else:
                out.counts[name] = value
        return out


class Recorder:
    """Per-name tallies of closed spans and counts, plus each thread's open spans."""

    def __init__(self) -> None:
        #: span name -> [calls, total seconds, self seconds]
        self._tally: Dict[str, List] = {}
        #: count name -> its sum so far
        self.counts: Dict[str, Any] = {}
        #: seconds of the spans opened while none was open on their thread
        self.top_s = 0.0
        self._threads = threading.local()

    def count(self, name: str, n=1) -> None:
        """Add ``n`` to the count ``name``."""
        self.counts[name] = self.counts.get(name, 0) + n

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

    def snapshot(self) -> Tally:
        """Every span and count so far."""
        spans = {name: SpanStats(*row) for name, row in list(self._tally.items())}
        return Tally(spans, dict(self.counts))

    def since(self, earlier: Tally) -> Tally:
        """The spans closed and the counts added after the ``earlier``
        snapshot.  A count is a difference of sums, exact for integers;
        a float count may differ from the window's own sum in its last bits."""
        now, none = self.snapshot(), SpanStats(0, 0.0, 0.0)
        out = Tally()
        for name, stats in now.spans.items():
            was = earlier.spans.get(name, none)
            if stats.calls != was.calls:
                out.spans[name] = SpanStats(*(a - b for a, b in zip(stats, was)))
        for name, n in now.counts.items():
            was = earlier.counts.get(name, 0)
            if n != was:
                out.counts[name] = n - was
        return out


_active = Recorder()


def recorder() -> Recorder:
    """The process's recorder."""
    return _active


def window() -> Callable[[], Tally]:
    """A window on the process's recorder, opened now: calling it reads
    what that recorder took in since."""
    return functools.partial(_active.since, _active.snapshot())


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
