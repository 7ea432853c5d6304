"""The read model of a run row, and the CLI's query filters.

:class:`StoredRun` is one row of the ``jobs`` table, as
:class:`~repro.serve.queue.JobQueue` reads it back: the table's columns
in field order, config parsed into a :class:`SimulationConfig`,
overrides labeled the same way sweep variants are.  The filter parsers
read ``--where key=value`` / ``--since 2026-08-01`` (as CLI arguments or
``GET /jobs`` parameters) into the filters :meth:`JobQueue.jobs
<repro.serve.queue.JobQueue.jobs>` takes — status, config keys, window.
"""

from __future__ import annotations

import datetime as _dt
import functools
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from repro.api.config import SimulationConfig, overrides_label
from repro.store.common import StoreError


@dataclass(frozen=True)
class StoredRun:
    """One run: identity, queue state, provenance, result accounting.

    The fields are the ``jobs`` table's columns in DDL order
    (:mod:`repro.store.schema`); ``overrides``, ``fft`` and ``parallel``
    are stored as ``<name>_json`` text.  ``config_json`` is kept as
    text and parsed into :attr:`config` on first use: listing a queue
    reads rows by the hundred and looks at no config.  The result
    columns (``gs_address`` onward) describe ``runs/<run_id>.npz`` once
    the row is ``ok``.
    """

    run_id: str
    config_hash: str
    status: str
    error: Optional[str]
    worker: Optional[str]
    attempts: int
    max_attempts: int
    timeout: float
    created: float
    updated: float
    started: Optional[float]
    finished: Optional[float]
    deadline: Optional[float]
    not_before: float
    progress: float
    message: Optional[str]
    config_json: str
    overrides: Dict[str, Any]
    gs_address: Optional[str]
    elapsed: float
    n_times: int
    fft: Optional[Dict[str, Any]]
    parallel: Optional[Dict[str, Any]]

    @functools.cached_property
    def config(self) -> SimulationConfig:
        return SimulationConfig.from_json(self.config_json)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def label(self) -> str:
        return overrides_label(self.overrides)

    def created_iso(self) -> str:
        return _dt.datetime.fromtimestamp(
            self.created, tz=_dt.timezone.utc
        ).strftime("%Y-%m-%d %H:%M:%S")


def parse_where(pairs: Sequence[str]) -> Dict[str, Any]:
    """``["field.params.kick=0.002", ...]`` -> a dotted-key filter dict.

    Values parse as JSON first (numbers, booleans, lists), falling back
    to the literal string — so ``--where propagation.propagator=ptim``
    and ``--where field.params.kick=0.002`` both do what they look like.
    """
    out: Dict[str, Any] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise StoreError(
                f"--where filter {pair!r} must look like dotted.config.key=value"
            )
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def parse_when(text: Optional[str], *, end: bool = False) -> Optional[float]:
    """``--since``/``--until`` argument -> unix timestamp.

    Accepts ISO dates/datetimes (``2026-08-01``, ``2026-08-01T12:30``,
    interpreted as UTC when no zone is given) or a raw unix timestamp.

    A *date-only* value names a whole day, so its meaning depends on
    which side of the window it bounds: ``--since 2026-08-08`` starts at
    that day's midnight, while ``--until 2026-08-08`` (``end=True``)
    covers *through* the end of that day — without this, an
    ``--until`` date would silently exclude every run created on it.
    """
    if text is None:
        return None
    try:
        return float(text)
    except ValueError:
        pass
    try:
        date_only = _dt.date.fromisoformat(text)
    except ValueError:
        date_only = None
    if date_only is not None:
        when = _dt.datetime.combine(
            date_only, _dt.time.min, tzinfo=_dt.timezone.utc
        )
        if end:
            when += _dt.timedelta(days=1)
            return when.timestamp() - 1e-6
        return when.timestamp()
    try:
        when = _dt.datetime.fromisoformat(text)
    except ValueError as exc:
        raise StoreError(
            f"bad timestamp {text!r}; use an ISO date (2026-08-01[T12:30]) "
            f"or a unix timestamp"
        ) from exc
    if when.tzinfo is None:
        when = when.replace(tzinfo=_dt.timezone.utc)
    return when.timestamp()
