"""Band-index sharding (paper Fig. 1, column layout).

PWDFT's band-index parallelization gives each rank whole orbitals, so a
rank's FFTs are local; this is the layout the distributed exchange
shards its sources by.  :func:`partition_sizes` is the balanced 1-D
block partition it cuts bands with; the exchange's rank program cuts its
tiles by the same partition (``np.array_split``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.utils.validation import require


def partition_sizes(total: int, parts: int) -> List[int]:
    """Balanced 1-D block partition (first ``total % parts`` get +1)."""
    base, extra = divmod(total, parts)
    return [base + (1 if p < extra else 0) for p in range(parts)]


@dataclass
class BandLayout:
    """Bands distributed across ranks; every rank holds full grids."""

    nbands: int
    ngrid: int
    nranks: int

    def shard(self, phi: np.ndarray) -> List[np.ndarray]:
        """Split a serial ``(nbands, ...)`` block into per-rank shards.

        Any trailing shape is allowed (orbitals, weights, projector
        amplitudes) — only the leading band axis is partitioned.
        """
        require(phi.shape[0] == self.nbands, "leading axis must be nbands")
        sizes = partition_sizes(self.nbands, self.nranks)
        out, off = [], 0
        for s in sizes:
            out.append(np.ascontiguousarray(phi[off : off + s]))
            off += s
        return out
