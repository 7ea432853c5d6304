"""Communication cost ledger — the accounting behind Table I.

Every simulated MPI operation records ``(category, bytes, seconds)``.
Categories use the paper's Table I column names: ``alltoallv``,
``sendrecv``, ``wait``, ``allgatherv``, ``allreduce``, ``bcast``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

TABLE1_CATEGORIES = ("alltoallv", "sendrecv", "wait", "allgatherv", "allreduce", "bcast")


@dataclass
class CommRecord:
    """One communication event."""

    category: str
    nbytes: float
    seconds: float
    count: int = 1


@dataclass
class CostLedger:
    """Accumulates modeled communication time per MPI category."""

    records: List[CommRecord] = field(default_factory=list)

    def add(self, category: str, nbytes: float, seconds: float, count: int = 1) -> None:
        if category not in TABLE1_CATEGORIES:
            raise ValueError(
                f"unknown category {category!r}; use one of {TABLE1_CATEGORIES}"
            )
        self.records.append(CommRecord(category, nbytes, seconds, count))

    def seconds_by_category(self) -> Dict[str, float]:
        out = {c: 0.0 for c in TABLE1_CATEGORIES}
        for r in self.records:
            out[r.category] += r.seconds
        return out

    def bytes_by_category(self) -> Dict[str, float]:
        out = {c: 0.0 for c in TABLE1_CATEGORIES}
        for r in self.records:
            out[r.category] += r.nbytes
        return out

    def total_seconds(self) -> float:
        return sum(r.seconds for r in self.records)

    def reset(self) -> None:
        self.records.clear()

    def describe(self) -> str:
        """One summary line: the non-zero categories, then the total."""
        seconds = self.seconds_by_category()
        cells = "  ".join(f"{c} {v:.3e}" for c, v in seconds.items() if v > 0.0)
        return f"{cells or '(none)'}  | total {self.total_seconds():.3e}"

    # -- deltas (result/checkpoint accounting) -------------------------------
    def mark(self) -> int:
        """Position marker for :meth:`since_mark` (records only append)."""
        return len(self.records)

    def since_mark(self, mark: int) -> "CostLedger":
        """New ledger holding copies of the records appended after ``mark``."""
        return CostLedger(
            records=[
                CommRecord(r.category, r.nbytes, r.seconds, r.count)
                for r in self.records[mark:]
            ]
        )

    # -- JSON-safe IO (result .npz blocks, checkpoints) ----------------------
    def to_dict(self) -> Dict[str, Dict[str, float]]:
        """Aggregated per-category ``{seconds, nbytes, count}`` (JSON-safe).

        Individual records are folded into one aggregate per category —
        the Table-I quantities survive exactly; per-event granularity
        (which no consumer reads back) does not.
        """
        out: Dict[str, Dict[str, float]] = {}
        for r in self.records:
            agg = out.setdefault(r.category, {"seconds": 0.0, "nbytes": 0.0, "count": 0})
            agg["seconds"] += r.seconds
            agg["nbytes"] += r.nbytes
            agg["count"] += r.count
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Dict[str, float]]) -> "CostLedger":
        """Rebuild (one aggregate record per category) from :meth:`to_dict`."""
        ledger = cls()
        for category, agg in data.items():
            ledger.add(
                category,
                float(agg.get("nbytes", 0.0)),
                float(agg.get("seconds", 0.0)),
                count=int(agg.get("count", 1)),
            )
        return ledger
