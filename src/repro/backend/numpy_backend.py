"""The CPU engine: each batched 3-D transform is one pocketfft call.

The CPU analogue of the paper's multi-batch cuFFT engine (Sec. III-B),
on ``scipy.fft`` (the C++ pocketfft):

* the ``1/Ngrid`` normalization is folded into the forward transform
  (``norm="forward"``), so there is no separate full-array scale pass;
* ``out is a`` runs truly in place (``overwrite_x``); a distinct ``out``
  is filled with ``a`` and transformed in place, so ``a`` is only read; a
  call without ``out`` makes exactly one ``complex128`` array, whatever
  the input dtype;
* ``workers=N`` fans one batch across threads, from ``[backend]
  fft_workers``.  A band's result depends neither on the thread count
  nor on where the band sits in a batch, so the setting moves wall time
  and no bits — which the serial/distributed bitwise gates rest on.

The registry name stays ``numpy``: it is part of every stored ground
state's address.  The per-axis body this module held until 1.11.0 is the
``SeedNumpyBackend`` oracle in ``tests/oracles.py``; the two agree to
round-off.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import scipy.fft as _sfft

from repro.backend.base import Backend, BackendError

_AXES = (-3, -2, -1)
#: input dtypes pocketfft already transforms in double precision
_DOUBLE = (np.dtype(np.float64), np.dtype(np.complex128))


def _landed_in(r: np.ndarray, out: np.ndarray) -> bool:
    """True when ``r`` is ``out``'s buffer already holding the result.

    pocketfft's overwrite path transforms in place but returns a *new*
    ndarray object wrapping the same memory; copying then would double
    the cost of every in-place transform.
    """
    return (
        r.shape == out.shape
        and r.strides == out.strides
        and r.__array_interface__["data"][0] == out.__array_interface__["data"][0]
    )


class NumpyBackend(Backend):
    """Batched complex 3-D FFTs on pocketfft, run in the caller's buffer."""

    name = "numpy"

    def __init__(self, fft_workers: int = 1) -> None:
        workers = int(fft_workers)
        if workers < 1:
            raise BackendError(f"fft_workers must be >= 1, got {fft_workers}")
        self.fft_workers = workers

    def describe(self) -> str:
        return f"{self.name} (pocketfft, workers={self.fft_workers})"

    def _c2c(self, a: np.ndarray, out: Optional[np.ndarray], func) -> np.ndarray:
        if out is None:
            if a.dtype in _DOUBLE:
                return func(a, axes=_AXES, norm="forward", workers=self.fft_workers)
            out = a = a.astype(np.complex128)  # float32 in must not mean complex64 out
        if out is not a:
            np.copyto(out, a)
        r = func(
            out, axes=_AXES, norm="forward", overwrite_x=True, workers=self.fft_workers
        )
        if not _landed_in(r, out):  # pocketfft declined in-place (layout/dtype)
            np.copyto(out, r)
        return out

    def _fftn(self, a: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        return self._c2c(a, out, _sfft.fftn)

    def _ifftn(self, a: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        # norm="forward" scaling lives on the forward leg, so this is the
        # unscaled inverse sum
        return self._c2c(a, out, _sfft.ifftn)
