"""Outside-in tracing: wrap ``repro``'s public callables, record spans.

The program under test carries no tracer, so this module measures each
layer from outside.  :meth:`Tracer.install` replaces the callables named
in :data:`bench.layers.SPAN_TARGETS` with timing wrappers — class
attributes for methods; for module functions, every loaded module
attribute that *is* the original, so ``from x import f`` aliases are
reached too.  :meth:`Tracer.uninstall` puts the originals back, by
identity.  Spans are kept in memory and written out when the workload
ends.

Wrappers live in this process only: pool and service workers are
traced through the rows they leave behind, not through spans.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    #: id of the enclosing span on the same thread, -1 for a root
    parent: int
    thread: int


class _Patch(NamedTuple):
    owner: Any
    attr: str
    original: Any
    wrapper: Any


class SpanStats(NamedTuple):
    calls: int
    total_s: float
    self_s: float


class Tracer:
    """Span recorder plus the run-time patching that feeds it.

    One tracer serves one workload run; ``run_id`` is stamped on the
    trace file so spans of one run share an identifier.
    """

    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: List[_Patch] = []

    # -- recording ------------------------------------------------------------
    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as a span (benchmark-side spans)."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, threading.get_ident()))

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed under span ``name``; the hot path of a traced run."""
        get_stack = self._stack
        next_id = self._ids.__next__
        record = self.spans.append
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = get_stack()
            sid = next_id()
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                record(Span(sid, name, start, end, parent, ident()))

        return traced

    # -- patching -------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append(_Patch(owner, attr, original, wrapper))

    def install(
        self,
        targets: Iterable[Tuple[str, str, str]],
        alias_prefixes: Sequence[str] = ("repro",),
    ) -> None:
        """Wrap every ``(span, module, qualname)`` target.

        Modules named by the targets are imported first; aliases are
        searched in every loaded module whose name starts with one of
        ``alias_prefixes``.
        """
        for span_name, module_name, qualname in targets:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self.wrap(span_name, original))
                continue
            original = getattr(module, qualname)
            wrapper = self.wrap(span_name, original)
            for name, mod in list(sys.modules.items()):
                if mod is None or not name.startswith(tuple(alias_prefixes)):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        """Restore every original; leaves alone anything re-patched since."""
        for owner, attr, original, wrapper in reversed(self._patches):
            current = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if current is wrapper:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------
    def stats(self) -> Dict[str, SpanStats]:
        """Per span name: calls, total time, self time.

        A span's self time is its duration minus the time its direct
        children cover; children run on the parent's thread and inside
        its interval, so no clipping is needed.
        """
        return span_stats(self.spans)

    def root_time(self, phases: Sequence[Tuple[float, float]], thread: int) -> float:
        """Summed duration of ``thread``'s root spans that start inside ``phases``.

        Equal to the summed self time of everything beneath them — the
        numerator of the coverage fraction.
        """
        return sum(
            s.end - s.start
            for s in self.spans
            if s.parent == -1 and s.thread == thread and _starts_in(s, phases)
        )

    def count_in(self, phases: Sequence[Tuple[float, float]]) -> int:
        """Spans that start inside ``phases`` (any thread)."""
        return sum(1 for s in self.spans if _starts_in(s, phases))

    def write(self, path, provenance: Optional[Dict[str, Any]] = None) -> Path:
        """Dump the spans as JSON (one row per span, times relative to the first)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = sorted(self.spans, key=lambda s: s.id)
        origin = min((s.start for s in spans), default=0.0)
        payload = {
            "run_id": self.run_id,
            "provenance": provenance or {},
            "columns": ["id", "name", "start_s", "end_s", "parent", "thread"],
            "spans": [
                [s.id, s.name, round(s.start - origin, 7), round(s.end - origin, 7), s.parent, s.thread]
                for s in spans
            ],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
        return path


def _starts_in(span: Span, phases: Sequence[Tuple[float, float]]) -> bool:
    return any(lo <= span.start <= hi for lo, hi in phases)


def span_stats(spans: Sequence[Span]) -> Dict[str, SpanStats]:
    child_time: Dict[int, float] = {}
    for s in spans:
        if s.parent != -1:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    self_time: Dict[str, float] = {}
    for s in spans:
        dur = s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + dur
        self_time[s.name] = self_time.get(s.name, 0.0) + dur - child_time.get(s.id, 0.0)
    return {name: SpanStats(calls[name], total[name], self_time[name]) for name in calls}


def per_span_cost(repeats: int = 20000) -> float:
    """Seconds one wrapped call adds, measured on an empty function."""

    def empty() -> None:
        return None

    wrapped = Tracer().wrap("probe", empty)
    clock = time.perf_counter
    t0 = clock()
    for _ in range(repeats):
        empty()
    t1 = clock()
    for _ in range(repeats):
        wrapped()
    t2 = clock()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / repeats)
