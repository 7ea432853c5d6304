"""Poisson solver in reciprocal space.

With our FFT convention (``rho(r) = Σ_G c_G e^{iGr}``), the Hartree
potential is diagonal in G: ``V_H(G) = 4π c_G / G²`` with the G = 0
component set to zero (jellium compensation for neutral cells).  The
kernel is the grid's, made once per grid
(:attr:`~repro.grid.fftgrid.PlaneWaveGrid.coulomb_kernel`).  The pair
"Poisson-like equations" of the Fock exchange operator (paper Sec. II-B)
apply their own kernel (:mod:`repro.hamiltonian.fock`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.grid.fftgrid import PlaneWaveGrid
from repro.trace import traced


def solve_poisson_g(grid: PlaneWaveGrid, rho_flat: np.ndarray, *, consume: bool = False) -> np.ndarray:
    """Apply the Coulomb kernel to a (possibly complex) density field.

    Parameters
    ----------
    rho_flat:
        Density(-like) field on the wavefunction grid, flat shape
        ``(..., ngrid)``; batched inputs are transformed in one batched FFT
        (the multi-batch strategy of paper Sec. III-B).
    consume:
        Declare ``rho_flat`` a temporary the backend may transform in
        place (values identical either way).

    Returns
    -------
    The real-space potential ``(..., ngrid)`` (complex dtype preserved).
    """
    rho_g = grid.r_to_g(np.asarray(rho_flat), consume=consume)
    rho_g *= grid.coulomb_kernel
    return grid.g_to_r(rho_g, consume=True)


@traced("hartree.potential")
def hartree_potential(grid: PlaneWaveGrid, rho_flat: np.ndarray) -> np.ndarray:
    """Real Hartree potential of a real density (flat arrays)."""
    # the astype() copy is ours to destroy
    v = solve_poisson_g(grid, rho_flat.astype(complex), consume=True)
    return v.real


def hartree_energy(grid: PlaneWaveGrid, rho_flat: np.ndarray, v_h: Optional[np.ndarray] = None) -> float:
    """``E_H = (1/2) ∫ rho(r) V_H(r) dr`` on the grid."""
    if v_h is None:
        v_h = hartree_potential(grid, rho_flat)
    return 0.5 * float(np.real(np.vdot(rho_flat, v_h))) * grid.dv
