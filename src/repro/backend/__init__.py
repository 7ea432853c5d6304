"""``repro.backend`` — pluggable numerics engines for the whole package.

The paper's performance story is told in FFTs and won with batched
transforms on swappable accelerator backends; this package is the seam
every compute engine plugs into.  A :class:`Backend` owns array
allocation and batched 3-D FFTs (see :mod:`repro.backend.base`); one
implementation ships registered:

``numpy``
    One pocketfft call per batched transform, run in the caller's
    ``out=`` buffer, on ``fft_workers`` threads
    (:mod:`repro.backend.numpy_backend`).

Any backend is wrapped in :class:`CountingBackend` by
``make_backend(..., count_ffts=True)`` (the default), which is how perf
tests keep verifying the paper's analytic FFT tallies against the real
numerics.  Construct engines through :func:`make_backend` (what the
``[backend]`` config section resolves through) and register new ones —
CuPy, MPI-FFT, ... — with :func:`register_backend`::

    @register_backend("cupy")
    def _cupy(fft_workers=1):
        return CupyBackend()

The 1-D helpers :func:`rfft` / :func:`rfftfreq` exist so *analysis*
transforms (dipole-trace spectra, G-vector index setup) have a home
inside this package: they are deliberately uncounted — the paper's
N^2 / N^3 tallies cover the 3-D grid transforms of the propagation hot
path only — and they are the single place the package touches the raw
FFT libraries outside a :class:`Backend` (a tier-1 guard test enforces
exactly that).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

import numpy as np

from repro.backend.base import Backend, BackendError, FFTCounters
from repro.backend.counting import CountingBackend
from repro.backend.numpy_backend import NumpyBackend

__all__ = [
    "Backend",
    "BackendError",
    "CountingBackend",
    "FFTCounters",
    "NumpyBackend",
    "available_backends",
    "backend_factory",
    "make_backend",
    "register_backend",
    "resolve_backend",
    "rfft",
    "rfftfreq",
]

BackendFactory = Callable[..., Backend]

_REGISTRY: Dict[str, BackendFactory] = {}


def register_backend(name: str, factory: Optional[BackendFactory] = None):
    """Register ``factory(fft_workers=...) -> Backend``; decorator-friendly."""

    def _add(fn: BackendFactory) -> BackendFactory:
        key = name.strip().lower()
        if key in _REGISTRY:
            raise BackendError(
                f"backend {key!r} is already registered; pick another name"
            )
        _REGISTRY[key] = fn
        return fn

    return _add if factory is None else _add(factory)


def unregister_backend(name: str) -> None:
    _REGISTRY.pop(name.strip().lower(), None)


def available_backends() -> List[str]:
    """Registered backend names (the CLI ``components`` table)."""
    return sorted(_REGISTRY)


def backend_factory(name: str) -> BackendFactory:
    """The factory registered under ``name``: the one place a backend
    name is refused, with what is registered."""
    key = str(name).strip().lower()
    if key in _REGISTRY:
        return _REGISTRY[key]
    raise BackendError(
        f"unknown backend {name!r}; registered: {', '.join(available_backends())}"
    )


def make_backend(
    name: str = "numpy", *, fft_workers: int = 1, count_ffts: bool = True
) -> Backend:
    """Build a registered backend, counting-wrapped unless opted out.

    This is the single constructor behind the ``[backend]`` config
    section: ``name`` picks the engine, ``fft_workers`` its transform
    thread count, and ``count_ffts`` whether transforms are tallied into
    :class:`FFTCounters` (cheap — an integer update per call — and on by
    default so perf accounting always works).
    """
    backend = backend_factory(name)(fft_workers=int(fft_workers))
    if count_ffts and backend.counters is None:
        backend = CountingBackend(backend)
    return backend


def resolve_backend(spec: Union[Backend, str, None]) -> Backend:
    """Coerce a backend instance / registry name / ``None`` to a Backend.

    ``None`` yields the default engine, counted — a *fresh* instance,
    never process-global state.
    """
    if isinstance(spec, Backend):
        return spec
    return make_backend("numpy" if spec is None else spec)


register_backend("numpy", NumpyBackend)


# --------------------------------------------------------------------------
# 1-D analysis transforms (uncounted; see module docstring)
# --------------------------------------------------------------------------


def rfft(a: np.ndarray, n: Optional[int] = None, axis: int = -1) -> np.ndarray:
    """Real-input 1-D FFT for analysis paths (spectra); uncounted."""
    return np.fft.rfft(a, n=n, axis=axis)


def rfftfreq(n: int, d: float = 1.0) -> np.ndarray:
    """Sample frequencies for :func:`rfft`; uncounted analysis helper."""
    return np.fft.rfftfreq(n, d=d)
