"""Macroscopic electronic current density (velocity gauge).

``j(t) = -(deg/Ω) Σ_i d_i <phi~_i| (-i∇ + A) |phi~_i>``

on sigma's eigenbasis image ``(phi~ = Phi Q, d)`` — the natural
velocity-gauge observable (its time integral gives the induced dipole,
so it complements :mod:`repro.observables.dipole`).
"""

from __future__ import annotations

import numpy as np

from repro.grid.fftgrid import PlaneWaveGrid


def current_density(
    grid: PlaneWaveGrid,
    phi_t: np.ndarray,
    d: np.ndarray,
    vector_potential: np.ndarray | None = None,
    degeneracy: float = 2.0,
) -> np.ndarray:
    """Average current density vector (a.u.) of sigma's image ``(phi_t, d)``."""
    a = np.zeros(3) if vector_potential is None else np.asarray(vector_potential, float)
    w = degeneracy * d
    phi_g = grid.r_to_g(phi_t)
    g = grid.gvec.cartesian.reshape(-1, 3)  # (ngrid, 3)
    # weighted momentum expectation Σ_n w_n Σ_G |c_nG|^2 G, plus the
    # diamagnetic A * N_e term of the minimal coupling
    mom_w = grid.cell.volume * np.einsum(
        "n,ng,gx,ng->x", w, phi_g.conj(), g, phi_g
    ).real
    total = mom_w + a * float(w.sum())
    return -total / grid.cell.volume
