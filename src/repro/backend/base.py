"""The :class:`Backend`: batched, counted 3-D FFTs on pocketfft.

PWDFT's hot loop is FFTs: the paper counts Fock-exchange cost directly in
"number of FFTs" (N^3 for the mixed-state baseline, N^2 after occupation
diagonalization) and wins its speedups with batched transforms
(multi-batch cuFFT, Sec. III-B).  The CPU analogue here, on
``scipy.fft`` (the C++ pocketfft):

* transforms are batched complex 3-D FFTs over the *last three* axes
  (any leading axes form the batch), one pocketfft call each;
* the ``1/Ngrid`` normalization is folded into the forward transform
  (``norm="forward"``), so there is no separate full-array scale pass;
* ``out is a`` runs truly in place (``overwrite_x``); a distinct ``out``
  is filled with ``a`` and transformed in place, so ``a`` is only read; a
  call without ``out`` makes exactly one ``complex128`` array, whatever
  the input dtype;
* ``workers=N`` fans one batch across threads, from ``[backend]
  fft_workers``.  A band's result depends neither on the thread count
  nor on where the band sits in a batch, so the setting moves wall time
  and no bits — which the serial/distributed bitwise gates rest on;
* every call is tallied into the engine's :class:`FFTCounters`.

Transforms use the PWDFT convention: :meth:`Backend.forward` is ``fftn``
scaled by ``1/Ngrid`` so plane-wave coefficients are directly the
discrete Fourier amplitudes, and :meth:`Backend.backward` is the
unscaled ``ifftn * Ngrid``; ``backward(forward(x)) == x`` to machine
precision.  The per-axis body this engine replaced in 1.11.0 is the
``SeedNumpyBackend`` oracle in ``tests/oracles.py``; the two agree to
round-off.

The first :class:`Backend` a process builds also fixes glibc's malloc
thresholds for that process (:func:`_fix_malloc_thresholds`), so only
processes that compute pay for, and profit from, the policy.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
import scipy.fft as _sfft

from repro.trace import traced

_AXES = (-3, -2, -1)
#: input dtypes pocketfft already transforms in double precision
_DOUBLE = (np.dtype(np.float64), np.dtype(np.complex128))


#: glibc's ``mallopt`` parameters (``malloc.h``)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: glibc's ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit, and the trim threshold
#: its dynamic rule pairs with it (twice the mmap threshold)
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20
_malloc_fixed = False


def _fix_malloc_thresholds() -> None:
    """Pin glibc's mmap and trim thresholds once per process.

    By default glibc raises both thresholds to follow the largest block
    freed so far, so what a tile- or band-sized temporary costs depends on
    the process's allocation history: below the threshold it is reused
    from the heap, above it every allocation maps fresh zeroed pages and
    every free unmaps them.  Setting the values glibc reaches by itself
    after freeing one 32 MiB block makes that state the starting one and
    switches the history-dependent rule off.  Blocks above 32 MiB are
    still mapped, and a process keeps up to 64 MiB of freed heap instead
    of returning it.  Nothing is done without ``mallopt`` (not glibc), or
    when the environment already configures glibc's malloc, so a
    launcher's explicit policy wins.
    """
    global _malloc_fixed
    if _malloc_fixed:
        return
    _malloc_fixed = True
    env = os.environ
    if (
        "MALLOC_MMAP_THRESHOLD_" in env
        or "MALLOC_TRIM_THRESHOLD_" in env
        or "glibc.malloc." in env.get("GLIBC_TUNABLES", "")
    ):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


class BackendError(ValueError):
    """Invalid backend configuration."""


@dataclass
class FFTCounters:
    """Tally of 3-D FFT invocations.

    ``transforms`` counts individual 3-D transforms (a batch of ``B``
    counts ``B``); ``calls`` counts backend invocations (a batch counts 1),
    so a band-by-band loop and one batched call are distinguishable.
    """

    transforms: int = 0
    calls: int = 0
    points: int = 0
    by_shape: Dict[Tuple[int, int, int], int] = field(default_factory=dict)

    def record(self, shape: Tuple[int, int, int], batch: int) -> None:
        self.transforms += batch
        self.calls += 1
        self.points += batch * math.prod(shape)
        self.by_shape[shape] = self.by_shape.get(shape, 0) + batch

    def reset(self) -> None:
        self.transforms = 0
        self.calls = 0
        self.points = 0
        self.by_shape.clear()

    def snapshot(self) -> "FFTCounters":
        out = FFTCounters(self.transforms, self.calls, self.points)
        out.by_shape = dict(self.by_shape)
        return out

    def since(self, earlier: "FFTCounters") -> "FFTCounters":
        """Difference between this tally and an earlier snapshot."""
        out = FFTCounters(
            self.transforms - earlier.transforms,
            self.calls - earlier.calls,
            self.points - earlier.points,
        )
        out.by_shape = {
            k: self.by_shape.get(k, 0) - earlier.by_shape.get(k, 0)
            for k in set(self.by_shape) | set(earlier.by_shape)
            if self.by_shape.get(k, 0) != earlier.by_shape.get(k, 0)
        }
        return out

    def merge(self, other: "FFTCounters") -> None:
        """Accumulate another tally into this one (ensemble aggregation)."""
        self.transforms += other.transforms
        self.calls += other.calls
        self.points += other.points
        for shape, n in other.by_shape.items():
            self.by_shape[shape] = self.by_shape.get(shape, 0) + n

    # -- JSON-safe IO (store rows, process-pool returns) ----------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form; grid shapes become ``"n1xn2xn3"`` keys."""
        return {
            "transforms": self.transforms,
            "calls": self.calls,
            "points": self.points,
            "by_shape": {
                "x".join(str(n) for n in shape): count
                for shape, count in sorted(self.by_shape.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FFTCounters":
        out = cls(
            int(data.get("transforms", 0)),
            int(data.get("calls", 0)),
            int(data.get("points", 0)),
        )
        for key, count in dict(data.get("by_shape", {})).items():
            shape = tuple(int(n) for n in str(key).split("x"))
            out.by_shape[shape] = int(count)
        return out


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


class Backend:
    """Batched complex 3-D FFTs on pocketfft, run in the caller's buffer;
    every call is recorded in ``counters``, the engine's :class:`FFTCounters`."""

    def __init__(self, fft_workers: int = 1) -> None:
        workers = int(fft_workers)
        if workers < 1:
            raise BackendError(f"fft_workers must be >= 1, got {fft_workers}")
        self.fft_workers = workers
        self.counters = FFTCounters()
        _fix_malloc_thresholds()

    def describe(self) -> str:
        """One-line description for the CLI / logs."""
        return f"numpy (pocketfft, workers={self.fft_workers}) + counters"

    # -- validation ------------------------------------------------------------
    def _accept(self, a: np.ndarray, out: Optional[np.ndarray]) -> None:
        """Validate a transform call and record it in the counters."""
        if a.ndim < 3:
            raise ValueError(f"FFT input must have >= 3 dims, got shape {a.shape}")
        if out is not None:
            if out.shape != a.shape:
                raise ValueError(f"out shape {out.shape} != input shape {a.shape}")
            if not np.issubdtype(out.dtype, np.complexfloating):
                raise ValueError(f"out must be complex, got dtype {out.dtype}")
            if not out.flags.writeable:
                raise ValueError("out buffer is not writeable")
        self.counters.record(a.shape[-3:], math.prod(a.shape[:-3]))

    # -- public transform API ------------------------------------------------
    @traced("backend.fft")
    def forward(self, a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Real space -> reciprocal space (normalized by 1/Ngrid).

        ``out``, when given, receives the result (and is returned): any
        writeable complex array of ``a``'s shape, contiguous or a strided
        view, for real or complex ``a``.  ``out is a`` is a true in-place
        transform (no batch-sized allocation) on a complex input the
        caller no longer needs; a distinct ``out`` leaves ``a`` untouched;
        without ``out`` one new ``complex128`` array is made, whatever
        ``a``'s dtype.
        """
        a = np.asarray(a)
        self._accept(a, out)
        return self._fftn(a, out)

    @traced("backend.fft")
    def backward(self, a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Reciprocal space -> real space (inverse of :meth:`forward`)."""
        a = np.asarray(a)
        self._accept(a, out)
        return self._ifftn(a, out)

    # -- the pocketfft body ----------------------------------------------------
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
        """Normalized forward transform over the last three axes."""
        return self._c2c(a, out, _sfft.fftn)

    def _ifftn(self, a: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """Unscaled inverse transform over the last three axes (the
        ``norm="forward"`` scaling lives on the forward leg)."""
        return self._c2c(a, out, _sfft.ifftn)
