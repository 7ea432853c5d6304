"""The default numpy backend — bit-compatible with the original engine.

``np.fft`` (pocketfft) batched transforms with the package normalization
applied exactly as the seed's process-global engine did
(``fftn * (1/Ngrid)`` / ``ifftn * Ngrid``), so switching the package to
the backend API changes no trajectory bits.  numpy's pocketfft is
single-threaded; ``fft_workers`` is accepted for config compatibility
and ignored (use the ``scipy`` backend for threaded transforms).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend.base import Backend

_AXES = (-3, -2, -1)


class NumpyBackend(Backend):
    """Batched complex 3-D FFTs on ``np.fft``."""

    name = "numpy"

    def __init__(self, fft_workers: int = 1) -> None:
        super().__init__()
        # accepted so `[backend] fft_workers` round-trips; numpy ignores it
        self.fft_workers = int(fft_workers)

    def _fftn(self, a: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        scale = self.plan(a.shape[-3:]).scale_forward
        r = np.fft.fftn(a, axes=_AXES)
        if out is None:
            r *= scale
            return r
        np.multiply(r, scale, out=out)
        return out

    def _ifftn(self, a: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        scale = self.plan(a.shape[-3:]).scale_backward
        r = np.fft.ifftn(a, axes=_AXES)
        if out is None:
            r *= scale
            return r
        np.multiply(r, scale, out=out)
        return out
