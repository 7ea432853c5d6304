"""Total energy of a time-dependent mixed state (Fig. 7(c)(e)).

``E[Phi, sigma] = Tr[sigma Phi* (T + V_nl) Phi] + E_loc + E_H + E_xc
+ alpha E_x + E_II + E_{G=0}``

evaluated through the sigma eigenbasis (the same diagonalization that
accelerates the Fock operator), exact exchange included: on ``(Phi Q, d)``.
Field-free, this is conserved by exact dynamics — the drift measures
integrator quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.hamiltonian.hamiltonian import Hamiltonian
from repro.hartree.ewald import ewald_energy
from repro.occupation.sigma import diagonalize_sigma, hermitize, rotate_orbitals


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-term decomposition of the total energy (hartree)."""

    kinetic: float
    local: float
    nonlocal_: float
    hartree: float
    xc_semilocal: float
    exact_exchange: float
    ewald: float
    g0: float

    @property
    def total(self) -> float:
        return (
            self.kinetic
            + self.local
            + self.nonlocal_
            + self.hartree
            + self.xc_semilocal
            + self.exact_exchange
            + self.ewald
            + self.g0
        )


def td_total_energy(
    ham: Hamiltonian,
    phi: np.ndarray,
    sigma: np.ndarray,
    rho: np.ndarray,
    e_ewald: Optional[float] = None,
    eig: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> EnergyBreakdown:
    """Energy of the state ``(Phi, sigma)`` under the current Hamiltonian.

    Updates the Hamiltonian's density-dependent pieces as a side effect
    (they are recomputed from ``rho``).

    Parameters
    ----------
    phi:
        Real-space orbital rows; packed once here for the kinetic and
        nonlocal terms, which live on the sphere.
    rho:
        The state's density, as ``PropagatorBase.density`` builds it
        (the caller has it already for the dipole).
    eig:
        ``(d, Q)`` of ``hermitize(sigma)`` when the caller already
        decomposed it for the density.
    """
    grid = ham.grid
    deg = ham.degeneracy

    d, q = diagonalize_sigma(hermitize(sigma)) if eig is None else eig
    c_t = rotate_orbitals(grid.to_sphere(phi), q)
    w = deg * d
    ham.update_density(rho)

    e_kin = ham.kinetic.energy(c_t, w)
    e_nl = ham.nonlocal_pseudo.energy(c_t, w)
    e_loc = float(np.dot(rho, ham.local_pseudo.v_real)) * grid.dv
    e_h = ham.e_hartree
    e_xc = ham.e_xc_semilocal
    e_g0 = ham.local_pseudo.energy_g0(ham.n_electrons)
    if e_ewald is None:
        e_ewald = ewald_energy(ham.cell)

    e_x = 0.0
    if ham.functional.is_hybrid and ham.fock is not None:
        e_x = ham.functional.alpha * ham.fock.exchange_energy(rotate_orbitals(phi, q), d, deg)

    return EnergyBreakdown(
        kinetic=e_kin,
        local=e_loc,
        nonlocal_=e_nl,
        hartree=e_h,
        xc_semilocal=e_xc,
        exact_exchange=e_x,
        ewald=e_ewald,
        g0=e_g0,
    )
