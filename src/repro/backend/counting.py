"""The counting wrapper: any backend + the package's FFT instrumentation.

Wraps a concrete backend and tallies every transform into
:class:`~repro.backend.base.FFTCounters`, preserving the seed engine's
semantics exactly: a batched call counts its batch size in
``transforms`` but 1 in ``calls``; the band-by-band strategy goes
through the wrapper once per band, so the two strategies stay
distinguishable in the tallies (how tests verify the paper's analytic
N^2 / N^3 counts against the real numerics).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.backend.base import Backend, FFTCounters


class CountingBackend(Backend):
    """Transparent counting proxy around an inner backend, which also allocates."""

    def __init__(self, inner: Backend) -> None:
        self.inner = inner
        self.counters = FFTCounters()

    @property
    def name(self) -> str:  # transparent: report the engine doing the work
        return self.inner.name

    def describe(self) -> str:
        return f"{self.inner.describe()} + counters"

    def view(self) -> "CountingBackend":
        """A new counter scope over the *same* inner engine.

        The view shares the inner backend (and therefore its numerics
        bit-for-bit) but owns fresh :class:`FFTCounters` — how per-rank
        tallies in the simulated-MPI substrate stay exact without
        duplicating engine state.
        """
        return CountingBackend(self.inner)

    # -- delegation ----------------------------------------------------------
    def empty(self, shape, dtype=np.complex128) -> np.ndarray:
        return self.inner.empty(shape, dtype=dtype)

    def zeros(self, shape, dtype=np.complex128) -> np.ndarray:
        return self.inner.zeros(shape, dtype=dtype)

    # -- counted transforms --------------------------------------------------
    def _record(self, a: np.ndarray) -> None:
        batch_shape, grid = self._split(a)
        self.counters.record(grid, math.prod(batch_shape))

    def _fftn(self, a: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        self._record(a)
        return self.inner._fftn(a, out)

    def _ifftn(self, a: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        self._record(a)
        return self.inner._ifftn(a, out)
