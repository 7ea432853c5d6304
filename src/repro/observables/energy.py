"""Total energy of a time-dependent mixed state (Fig. 7(c)(e)).

``E[Phi, sigma] = Tr[sigma Phi* (T + V_nl) Phi] + E_loc + E_H + E_xc
+ alpha E_x + E_II + E_{G=0}``

evaluated on sigma's eigenbasis image ``(phi~ = Phi Q, d)``, exact
exchange included, which ``PropagatorBase.observe`` makes once.
Field-free, this is conserved by exact dynamics — the drift measures
integrator quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.hamiltonian.hamiltonian import Hamiltonian
from repro.hartree.ewald import ewald_energy


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
    phi_t: np.ndarray,
    d: np.ndarray,
    rho: np.ndarray,
    e_ewald: Optional[float] = None,
) -> EnergyBreakdown:
    """Energy of the state with sigma's image ``(phi_t, d)`` under the current ``H``.

    Updates the Hamiltonian's density-dependent pieces as a side effect
    (they are recomputed from ``rho``).

    Parameters
    ----------
    phi_t, d:
        Real-space rows ``phi~ = Phi Q`` and sigma's eigenvalues; the rows
        are packed once here for the kinetic and nonlocal terms.
    rho:
        The state's density, as ``PropagatorBase.density`` builds it
        (the caller has it already for the dipole).
    """
    grid = ham.grid
    deg = ham.degeneracy

    c_t = grid.to_sphere(phi_t)
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
        e_x = ham.functional.alpha * ham.fock.exchange_energy(phi_t, d, deg)

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
