"""The :class:`Backend`: batched, counted 3-D FFTs on pocketfft.

PWDFT's hot loop is FFTs: the paper counts Fock-exchange cost directly in
"number of FFTs" (N^3 for the mixed-state baseline, N^2 after occupation
diagonalization) and wins its speedups with batched transforms
(multi-batch cuFFT, Sec. III-B).  The CPU analogue here is pocketfft's
C++ extension, the very ``c2c`` that ``scipy.fft`` calls, bound without
importing ``scipy.fft`` (:func:`_bind_pocketfft`):

* transforms are batched complex 3-D FFTs over the *last three* axes
  (any leading axes form the batch), one pocketfft call each;
* the ``1/Ngrid`` normalization is folded into the forward transform
  (``norm="forward"``), so there is no separate full-array scale pass;
* ``out is a`` runs truly in place; a distinct ``out`` is filled with
  ``a`` and transformed in place, so ``a`` is only read; a call without
  ``out`` makes exactly one ``complex128`` array, whatever the input dtype;
* ``workers=N`` fans one batch across threads, from ``[backend]
  fft_workers``.  A band's result depends neither on the thread count
  nor on where the band sits in a batch, so the setting moves wall time
  and no bits — which the serial/distributed bitwise gates rest on;
* every call counts its transforms, itself, its grid points and its
  shape into the process's tally (:mod:`repro.trace`), which
  :class:`FFTTally` reads.

Each call passes ``c2c`` exactly what ``scipy.fft.fftn`` / ``ifftn`` with
``norm="forward"`` pass it, so every transform is bit-identical to
``scipy.fft``'s (``tests/test_backend.py``).  A computing process thus
loads numpy and this one extension, not SciPy's Python packages.

Transforms use the PWDFT convention: :meth:`Backend.forward` is ``fftn``
scaled by ``1/Ngrid`` so plane-wave coefficients are directly the
discrete Fourier amplitudes, and :meth:`Backend.backward` is the
unscaled ``ifftn * Ngrid``; ``backward(forward(x)) == x`` to machine
precision.  The per-axis body this engine replaced in 1.11.0 is the
``SeedNumpyBackend`` oracle in ``tests/oracles.py``; the two agree to
round-off.

The first :class:`Backend` a process builds also sets two policies for
that process: glibc's malloc thresholds (:func:`_fix_malloc_thresholds`)
and one BLAS thread (:func:`_pin_blas_threads`), so only processes that
compute pay for, and profit from, them.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import importlib.util
import math
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.trace import Tally, recorder, traced, window

#: input dtypes pocketfft already transforms in double precision
_DOUBLE = (np.dtype(np.float64), np.dtype(np.complex128))

#: pocketfft's extension, under the name ``scipy.fft`` imports it by
_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def _pocketfft_path() -> Optional[str]:
    """The extension's file in scipy's package directory, or None.

    ``find_spec`` on the top-level name only locates the package; on the
    dotted name it would import the parents, ``scipy.fft`` included.
    """
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    folder = os.path.join(os.path.dirname(spec.origin), "fft", "_pocketfft")
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(folder, "pypocketfft" + suffix)
        if os.path.isfile(path):
            return path
    return None


def _bind_pocketfft(path: Optional[str]):
    """pocketfft's ``c2c(a, axes, forward, inorm, out, nthreads)``.

    The module is loaded from ``path`` and registered in ``sys.modules``
    under its canonical name, so a later ``import scipy.fft`` reuses it;
    without a path it is obtained by importing ``scipy.fft``.  A module
    already loaded either way is reused.
    """
    module = sys.modules.get(_POCKETFFT)
    if module is None and path is None:
        module = importlib.import_module(_POCKETFFT)
    elif module is None:
        loader = ExtensionFileLoader(_POCKETFFT, path)
        spec = importlib.util.spec_from_file_location(_POCKETFFT, path, loader=loader)
        module = importlib.util.module_from_spec(spec)
        loader.exec_module(module)
        sys.modules[_POCKETFFT] = module
    return module.c2c


_c2c = _bind_pocketfft(_pocketfft_path())


#: glibc's ``mallopt`` parameters (``malloc.h``)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: glibc's ``DEFAULT_MMAP_THRESHOLD_MAX`` on 64-bit, and the trim threshold
#: its dynamic rule pairs with it (twice the mmap threshold)
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


@functools.cache
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


#: the variables through which a launcher chooses BLAS's thread count
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _openblas() -> Optional[ctypes.CDLL]:
    """numpy's bundled OpenBLAS (``libscipy_openblas64_``), or None.

    The wheels ship it beside the package (``numpy.libs``, or
    ``numpy/.dylibs``); numpy has loaded it already, so this opens the
    same library, not a second copy.  A numpy built against another BLAS
    has none.
    """
    package = os.path.dirname(np.__file__)
    found = [
        path
        for folder in (package + ".libs", os.path.join(package, ".dylibs"))
        for path in glob.glob(os.path.join(folder, "libscipy_openblas64_*"))
    ]
    return ctypes.CDLL(found[0]) if found else None


@functools.cache
def _pin_blas_threads() -> None:
    """Run BLAS on one thread in this process, once.

    At this package's sizes (tens of bands, a few thousand grid points)
    every gemm and ``eigh`` is far below OpenBLAS's threading break-even,
    and a process that threads its BLAS over every CPU competes with the
    other computing processes of a sweep or a pool for them.  Pinning
    every computing process, not only pool workers, keeps a job's bits
    independent of which process ran it.  numpy's bundled OpenBLAS is the
    only BLAS a computing process maps; nothing is done without it, or
    when the environment names a thread count, so a launcher's choice
    wins.
    """
    if any(name in os.environ for name in _BLAS_THREAD_VARS):
        return
    lib = _openblas()
    setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
    if setter is not None:
        setter.argtypes = (ctypes.c_int,)
        setter.restype = None
        setter(1)


class BackendError(ValueError):
    """Invalid backend configuration."""


#: the counts every transform call adds to the tally (:mod:`repro.trace`)
FFT = "backend.fft"
TRANSFORMS, CALLS, POINTS = f"{FFT}.transforms", f"{FFT}.calls", f"{FFT}.points"


@functools.cache
def _shape_name(shape: Tuple[int, ...]) -> str:
    return f"{FFT}.by_shape." + "x".join(str(n) for n in shape)


class FFTTally(NamedTuple):
    """What the backend counted in one slice of the tally, in the form of
    a row's ``fft_json``.

    ``transforms`` counts individual 3-D transforms (a batch of ``B``
    counts ``B``); ``calls`` counts backend invocations (a batch counts 1),
    so a band-by-band loop and one batched call are distinguishable;
    ``by_shape`` counts transforms per ``"n1xn2xn3"`` grid.
    """

    transforms: int = 0
    calls: int = 0
    points: int = 0
    by_shape: Dict[str, int] = {}  # never mutated: each tally gets its own

    @classmethod
    def of(cls, tally: Tally) -> "FFTTally":
        """The backend's counts in ``tally``."""
        return cls(**tally.to_dict(FFT))


class Backend:
    """Batched complex 3-D FFTs on pocketfft, run in the caller's buffer;
    every call is counted into the process's tally."""

    def __init__(self, fft_workers: int = 1) -> None:
        workers = int(fft_workers)
        if workers < 1:
            raise BackendError(f"fft_workers must be >= 1, got {fft_workers}")
        self.fft_workers = workers
        #: reads the process's tally from this engine's construction on: what
        #: a simulation holding it counted (and anything else that computed)
        self.window = window()
        _fix_malloc_thresholds()
        _pin_blas_threads()

    def describe(self) -> str:
        """One-line description for the CLI / logs."""
        return f"numpy (pocketfft, workers={self.fft_workers}) + counters"

    # -- validation ------------------------------------------------------------
    def _accept(self, a: np.ndarray, out: Optional[np.ndarray]) -> None:
        """Validate a transform call and count it into the process's tally."""
        if a.ndim < 3:
            raise ValueError(f"FFT input must have >= 3 dims, got shape {a.shape}")
        if out is not None:
            if out.shape != a.shape:
                raise ValueError(f"out shape {out.shape} != input shape {a.shape}")
            if not np.issubdtype(out.dtype, np.complexfloating):
                raise ValueError(f"out must be complex, got dtype {out.dtype}")
            if not out.flags.writeable:
                raise ValueError("out buffer is not writeable")
        batch, shape, rec = math.prod(a.shape[:-3]), a.shape[-3:], recorder()
        rec.count(TRANSFORMS, batch)
        rec.count(CALLS)
        rec.count(POINTS, batch * math.prod(shape))
        rec.count(_shape_name(shape), batch)

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
    def _transform(self, a: np.ndarray, out: Optional[np.ndarray], forward: bool) -> np.ndarray:
        """One ``c2c`` call as ``scipy.fft`` makes it for ``norm="forward"``:
        ``inorm`` 2 scales the forward leg by ``1/Ngrid``, 0 leaves the
        inverse unscaled.  Double-precision input without ``out`` goes in
        unconverted (a real one takes pocketfft's real-input path)."""
        axes = [a.ndim - 3, a.ndim - 2, a.ndim - 1]
        inorm = 2 if forward else 0
        if out is None:
            if a.dtype in _DOUBLE:
                return _c2c(a, axes, forward, inorm, None, self.fft_workers)
            out = a = a.astype(np.complex128)  # float32 in must not mean complex64 out
        if out is not a:
            np.copyto(out, a)
        _c2c(out, axes, forward, inorm, out, self.fft_workers)
        return out

    def _fftn(self, a: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """Normalized forward transform over the last three axes."""
        return self._transform(a, out, True)

    def _ifftn(self, a: np.ndarray, out: Optional[np.ndarray]) -> np.ndarray:
        """Unscaled inverse transform over the last three axes (the
        ``norm="forward"`` scaling lives on the forward leg)."""
        return self._transform(a, out, False)
