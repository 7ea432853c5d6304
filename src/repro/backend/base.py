"""The :class:`Backend` protocol: array allocation + batched 3-D FFTs.

PWDFT's hot loop is FFTs: the paper counts Fock-exchange cost directly in
"number of FFTs" (N^3 for the mixed-state baseline, N^2 after occupation
diagonalization) and wins its speedups with batched transforms on
accelerator backends (multi-batch cuFFT, Sec. III-B).  A backend owns the
two resources those optimizations revolve around:

* **allocation** — ``empty``/``zeros``/``*_like``, so an engine with its
  own memory space hands out arrays it can transform;
* **transforms** — batched complex 3-D FFTs over the *last three* axes
  (any leading axes form the batch) with ``out=`` support, including
  ``out is a`` for true in-place transforms on donated temporaries.

Transforms use the PWDFT convention: :meth:`Backend.forward` is ``fftn``
scaled by ``1/Ngrid`` so plane-wave coefficients are directly the
discrete Fourier amplitudes, and :meth:`Backend.backward` is the
unscaled ``ifftn * Ngrid``; ``backward(forward(x)) == x`` to machine
precision.

Counting lives in :class:`~repro.backend.counting.CountingBackend`, a
wrapper carrying :class:`FFTCounters`; plain backends do no bookkeeping.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np


class BackendError(ValueError):
    """Unknown backend name or invalid backend configuration."""


@dataclass
class FFTCounters:
    """Tally of 3-D FFT invocations.

    ``transforms`` counts individual 3-D transforms (a batch of ``B``
    counts ``B``); ``calls`` counts backend invocations (a batch counts 1),
    so the band-by-band vs multi-batch strategies are distinguishable.
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

    # -- JSON-safe IO (ensemble .npz metadata, process-pool returns) ---------
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


class Backend(ABC):
    """Array allocation + batched complex 3-D FFTs.

    Subclasses implement :meth:`_fftn` / :meth:`_ifftn`; everything else
    (validation, band-by-band strategy) is shared.  The ``counters``
    attribute is ``None`` for plain backends and an :class:`FFTCounters`
    on the counting wrapper, so callers can always write
    ``backend.counters and backend.counters.snapshot()``.
    """

    #: registry key of the implementation ("numpy", a plugin's name, ...)
    name: str = "abstract"
    #: populated by the counting wrapper; None on plain backends
    counters: Optional[FFTCounters] = None

    def describe(self) -> str:
        """One-line description for the CLI / logs."""
        return self.name

    # -- allocation ----------------------------------------------------------
    def empty(self, shape, dtype=np.complex128) -> np.ndarray:
        """Uninitialized array owned by this backend's memory space."""
        return np.empty(shape, dtype=dtype)

    def zeros(self, shape, dtype=np.complex128) -> np.ndarray:
        return np.zeros(shape, dtype=dtype)

    def empty_like(self, a: np.ndarray) -> np.ndarray:
        return self.empty(a.shape, dtype=a.dtype)

    def zeros_like(self, a: np.ndarray) -> np.ndarray:
        return self.zeros(a.shape, dtype=a.dtype)

    # -- internals -----------------------------------------------------------
    @staticmethod
    def _split(a: np.ndarray) -> Tuple[Tuple[int, ...], Tuple[int, int, int]]:
        if a.ndim < 3:
            raise ValueError(f"FFT input must have >= 3 dims, got shape {a.shape}")
        return a.shape[:-3], a.shape[-3:]

    @staticmethod
    def _check_out(a: np.ndarray, out: Optional[np.ndarray]) -> None:
        if out is None:
            return
        if out.shape != a.shape:
            raise ValueError(f"out shape {out.shape} != input shape {a.shape}")
        if not np.issubdtype(out.dtype, np.complexfloating):
            raise ValueError(f"out must be complex, got dtype {out.dtype}")
        if not out.flags.writeable:
            raise ValueError("out buffer is not writeable")

    @abstractmethod
    def _fftn(self, a: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """Normalized forward transform over the last three axes."""

    @abstractmethod
    def _ifftn(self, a: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """Unscaled inverse transform over the last three axes."""

    # -- public transform API ------------------------------------------------
    def forward(self, a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Real space -> reciprocal space (normalized by 1/Ngrid).

        ``out``, when given, receives the result (and is returned): any
        writeable complex array of ``a``'s shape, contiguous or a strided
        view, for real or complex ``a``.  ``out is a`` is a true in-place
        transform (no batch-sized allocation on the shipped engine) on a
        complex input the caller no longer needs; a distinct ``out``
        leaves ``a`` untouched; without ``out`` one new ``complex128``
        array is made, whatever ``a``'s dtype.
        """
        a = np.asarray(a)
        self._split(a)
        self._check_out(a, out)
        return self._fftn(a, out)

    def backward(self, a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Reciprocal space -> real space (inverse of :meth:`forward`)."""
        a = np.asarray(a)
        self._split(a)
        self._check_out(a, out)
        return self._ifftn(a, out)

    def forward_bandbyband(
        self, a: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Loop over the batch one band at a time (baseline strategy).

        Numerically identical to :meth:`forward`; exists so the paper's
        band-by-band vs multi-batch strategies can be compared honestly
        (Fig. 9 micro-benchmarks, Alg. 2's per-pair transforms).
        """
        return self._bandbyband(a, out, self.forward)

    def backward_bandbyband(
        self, a: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Band-by-band inverse transform (see :meth:`forward_bandbyband`)."""
        return self._bandbyband(a, out, self.backward)

    def _bandbyband(self, a, out, one) -> np.ndarray:
        a = np.asarray(a)
        batch_shape, grid = self._split(a)
        if not batch_shape:
            return one(a, out=out)
        self._check_out(a, out)
        flat = a.reshape((-1,) + grid)
        result = self.empty(a.shape) if out is None else out
        out_flat = result.reshape((-1,) + grid)
        for b in range(flat.shape[0]):
            one(flat[b], out=out_flat[b])
        return result
