"""Functional definitions: semilocal (LDA) and hybrid (HSE-like).

A :class:`HybridFunctional` mixes a fraction ``alpha`` of (screened)
exact exchange into the semilocal functional, per paper Eq. (8):

``H[P] = -Δ/2 + V_ext + V_Hxc[P] + alpha * V_x[P]``.

The object only carries the *definition* (mixing fraction, screening);
the expensive operator itself lives in :mod:`repro.hamiltonian.fock`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.constants import HSE06_ALPHA, HSE06_OMEGA
from repro.grid.fftgrid import PlaneWaveGrid
from repro.trace import traced
from repro.xc.kernels import exchange_kernel
from repro.xc.lda import lda_xc


@dataclass(frozen=True)
class SemilocalFunctional:
    """Pure LDA functional (no exact exchange)."""

    name: str = "LDA-PZ81"

    @property
    def is_hybrid(self) -> bool:
        return False

    @traced("xc.semilocal")
    def semilocal(self, rho: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(eps_xc, v_xc)`` of the semilocal part."""
        return lda_xc(rho)


@dataclass(frozen=True)
class HybridFunctional:
    """Screened hybrid: LDA + ``alpha`` x short-range exact exchange.

    With ``screened=True`` and the default ``alpha=0.25, omega=0.11`` this
    is the HSE06 construction of the paper (on an LDA semilocal base, see
    DESIGN.md substitutions).  ``screened=False`` gives a PBE0-style
    global hybrid.
    """

    alpha: float = HSE06_ALPHA
    omega: float = HSE06_OMEGA
    screened: bool = True
    name: str = "HSE-LDA"

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.screened and self.omega <= 0.0:
            raise ValueError(f"omega must be > 0 for a screened hybrid, got {self.omega}")

    @property
    def is_hybrid(self) -> bool:
        return True

    @traced("xc.semilocal")
    def semilocal(self, rho: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Semilocal remainder.

        Full HSE subtracts the short-range *semilocal* exchange that the
        exact-exchange term replaces; with the LDA base we keep the whole
        LDA and add alpha·SR-exact-exchange, which preserves the cost
        structure (the object of this reproduction) while remaining a
        well-defined functional.
        """
        return lda_xc(rho)

    def kernel(self, grid: PlaneWaveGrid) -> np.ndarray:
        """G-space interaction kernel of the exact-exchange term."""
        return exchange_kernel(grid, screened=self.screened, omega=self.omega)


def pbe0(name: str = "PBE0-LDA", **params) -> HybridFunctional:
    """The unscreened global hybrid, config name ``pbe0``."""
    return HybridFunctional(screened=False, name=name, **params)
