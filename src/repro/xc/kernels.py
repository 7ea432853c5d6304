"""Electron-interaction kernels ``K(G)`` for the Fock exchange operator.

The paper's Fock operator (Sec. II-B) uses a "possibly screened" kernel
``K(r, r')``.  With HSE06 the exact exchange is range-separated:
only the short-range erfc part is mixed, whose Fourier transform is

``K_SR(G) = (4π/G²) (1 − exp(−G²/(4ω²)))``

with the *finite* limit ``π/ω²`` at G = 0 — this is why HSE-type hybrids
are the practical choice for Γ-only large cells (no divergence
correction needed).  The bare kernel is provided for PBE0-style mixing,
with the G = 0 entry zeroed (the standard lowest-order Γ treatment).
"""

from __future__ import annotations

import numpy as np

from repro.constants import HSE06_OMEGA
from repro.grid.fftgrid import PlaneWaveGrid


def bare_coulomb_kernel(grid: PlaneWaveGrid) -> np.ndarray:
    """``4π/G²`` with the divergent G=0 entry set to zero (flat array):
    a copy of the grid's Hartree kernel."""
    return grid.coulomb_kernel.copy()


def erfc_screened_kernel(grid: PlaneWaveGrid, omega: float = HSE06_OMEGA) -> np.ndarray:
    """Short-range (erfc-screened) Coulomb kernel in G space (flat array)."""
    g2 = grid.gvec.g2.ravel()
    kernel = grid.coulomb_kernel * (1.0 - np.exp(-g2 / (4.0 * omega**2)))
    kernel[g2 <= 1e-12] = np.pi / omega**2
    return kernel


def exchange_kernel(grid: PlaneWaveGrid, screened: bool = True, omega: float = HSE06_OMEGA) -> np.ndarray:
    """Kernel selected by the functional: screened (HSE) or bare (PBE0)."""
    return erfc_screened_kernel(grid, omega) if screened else bare_coulomb_kernel(grid)
