"""``repro.backend`` — the one FFT engine behind every grid transform.

:class:`Backend` (:mod:`repro.backend.base`) runs each batched 3-D
transform as one pocketfft call on ``fft_workers`` threads and counts it
into the process's tally (:mod:`repro.trace`); :class:`FFTTally` reads a
slice of it, which is how perf tests verify the paper's analytic FFT
tallies against the real numerics.

The 1-D helpers :func:`rfft` / :func:`rfftfreq` exist so *analysis*
transforms (dipole-trace spectra) have a home inside this package: they
are deliberately uncounted — the paper's N^2 / N^3 tallies cover the 3-D
grid transforms of the propagation hot path only — and, with
:class:`Backend`, the single place the package touches the raw FFT
libraries (a tier-1 guard test enforces exactly that).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend.base import Backend, BackendError, FFTTally

__all__ = ["Backend", "BackendError", "FFTTally", "rfft", "rfftfreq"]


def rfft(a: np.ndarray, n: Optional[int] = None, axis: int = -1) -> np.ndarray:
    """Real-input 1-D FFT for analysis paths (spectra); uncounted."""
    return np.fft.rfft(a, n=n, axis=axis)


def rfftfreq(n: int, d: float = 1.0) -> np.ndarray:
    """Sample frequencies for :func:`rfft`; uncounted analysis helper."""
    return np.fft.rfftfreq(n, d=d)
