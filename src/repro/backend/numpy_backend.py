"""The default numpy backend — bit-compatible with the original engine.

``np.fft`` (pocketfft) batched transforms with the package normalization
applied exactly as the seed's process-global engine did
(``fftn * (1/Ngrid)`` / ``ifftn * Ngrid``), so switching the package to
the backend API changes no trajectory bits.  The three axis passes are
written *into the destination* (``np.fft.fftn(..., out=out)``, NumPy >=
2.0): ``out is a`` allocates nothing, a distinct ``out`` reads ``a`` once
and never writes it, and a call without ``out`` makes exactly one array.
Pass order (last axis first) and the separate scale multiply are those of
``np.fft.fftn(a) * scale``, so the values are the same bits.  numpy's
pocketfft is single-threaded; ``fft_workers`` is accepted for config
compatibility and ignored (use the ``scipy`` backend for threaded
transforms).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend.base import Backend

if np.lib.NumpyVersion(np.__version__) < "2.0.0":
    raise ImportError(
        "repro needs numpy>=2.0: the default FFT engine writes np.fft passes into out="
    )

_AXES = (-3, -2, -1)


class NumpyBackend(Backend):
    """Batched complex 3-D FFTs on ``np.fft``, run in the caller's buffer."""

    name = "numpy"

    def __init__(self, fft_workers: int = 1) -> None:
        super().__init__()
        # accepted so `[backend] fft_workers` round-trips; numpy ignores it
        self.fft_workers = int(fft_workers)

    def _fftn(self, a: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        if out is None:
            out = np.empty(a.shape, np.complex128)
        np.fft.fftn(a, axes=_AXES, out=out)
        out *= self.plan(a.shape[-3:]).scale_forward
        return out

    def _ifftn(self, a: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        if out is None:
            out = np.empty(a.shape, np.complex128)
        np.fft.ifftn(a, axes=_AXES, out=out)
        out *= self.plan(a.shape[-3:]).scale_backward
        return out
