"""Communication cost ledger — the accounting behind Table I.

Every simulated MPI operation is :func:`charge`\\ d into the process's
tally (:mod:`repro.trace`) as the counts ``parallel.comm.<category>.
{seconds,nbytes,count}``.  Categories use the paper's Table I column
names: ``alltoallv``, ``sendrecv``, ``wait``, ``allgatherv``,
``allreduce``, ``bcast``.  A :class:`CostLedger` reads them off one
slice of the tally.  Seconds are counted exactly, as fractions: a run's
share is then the difference of two sums without rounding, and reads
as its own sum rounded once, not as the rounding error of everything
charged before it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict

from repro.trace import Tally, recorder

TABLE1_CATEGORIES = ("alltoallv", "sendrecv", "wait", "allgatherv", "allreduce", "bcast")

COMM = "parallel.comm"

#: per category, the names of its seconds, bytes and message counts
_NAMES = {
    c: tuple(f"{COMM}.{c}.{f}" for f in ("seconds", "nbytes", "count")) for c in TABLE1_CATEGORIES
}


def _names(category: str):
    try:
        return _NAMES[category]
    except KeyError:
        raise ValueError(f"unknown category {category!r}; use one of {TABLE1_CATEGORIES}") from None


def charge(category: str, nbytes: float, seconds: float) -> None:
    """Count one message of ``category`` into the process's tally."""
    rec = recorder()
    for name, n in zip(_names(category), (Fraction(seconds), nbytes, 1)):
        rec.count(name, n)


@dataclass
class CostLedger:
    """Modeled communication time per MPI category, in one slice of the tally."""

    tally: Tally = field(default_factory=Tally)

    def _by_category(self, index: int) -> Dict[str, Any]:
        return {c: self.tally.counts.get(_NAMES[c][index], 0) for c in TABLE1_CATEGORIES}

    def seconds_by_category(self) -> Dict[str, float]:
        return {c: float(s) for c, s in self._by_category(0).items()}

    def bytes_by_category(self) -> Dict[str, float]:
        return {c: float(n) for c, n in self._by_category(1).items()}

    def total_seconds(self) -> float:
        return float(sum(self._by_category(0).values()))

    def describe(self) -> str:
        """One summary line: the non-zero categories, then the total."""
        seconds = self.seconds_by_category()
        cells = "  ".join(f"{c} {v:.3e}" for c, v in seconds.items() if v > 0.0)
        return f"{cells or '(none)'}  | total {self.total_seconds():.3e}"

    # -- JSON-safe IO (result .npz blocks, checkpoints) ----------------------
    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """Per charged category (its count moved) ``{seconds, nbytes,
        count}``, JSON-safe; seconds or bytes that did not move read 0.0."""
        return {
            c: {"seconds": float(agg.get("seconds", 0)), "nbytes": float(agg.get("nbytes", 0)),
                "count": agg["count"]}
            for c, agg in self.tally.to_dict(COMM).items() if "count" in agg
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Dict[str, float]]) -> "CostLedger":
        """Rebuild from :meth:`to_dict`; an unknown category is refused."""
        tally = Tally.from_dict(COMM, data)
        for category in data:
            seconds = _names(category)[0]
            if seconds in tally.counts:
                tally.counts[seconds] = Fraction(tally.counts[seconds])
        return cls(tally)
