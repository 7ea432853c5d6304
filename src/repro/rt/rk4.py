"""Fourth-order Runge–Kutta propagator — the paper's accuracy reference.

In the Schrödinger (physical) gauge the occupation matrix is constant:
``i d(Psi)/dt = H(t, P) Psi`` with ``P = Psi sigma(0) Psi*``; all
occupation dynamics live in the unitary evolution of the orbitals.  RK4
needs sub-attosecond steps for stability (the paper compares PT-IM-ACE at
50 as against RK4 at a step "100 times smaller").

Each stage rebuilds the nonlinear Hamiltonian at the stage density (and,
for hybrids, the stage exchange sources) — 4 dense H evaluations per
step, which is exactly why implicit PT methods win at scale.  sigma being
constant, a step decomposes it once; each stage rotates its block into
sigma's eigenbasis, builds the density and the exchange sources from that
image, and rotates ``H phi~`` back (``H`` is linear).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.rt.propagator import PropagatorBase, StepStats, TDState
from repro.occupation.sigma import (
    diagonalize_sigma,
    hermitize,
    rotate_orbitals,
    unrotate_orbitals,
)


class RK4Propagator(PropagatorBase):
    """Classical RK4 on the nonlinear TDKS equation (fixed sigma)."""

    name = "rk4"

    def _rhs(self, phi: np.ndarray, d: np.ndarray, q: np.ndarray, t: float) -> np.ndarray:
        """``-i H(t, P[phi, sigma]) phi`` with H rebuilt at this stage;
        ``Q diag(d) Q*`` is the step's sigma."""
        ham = self.ham
        phi_t = rotate_orbitals(phi, q)
        ham.update_density(self.density(phi_t, d))
        ham.set_time(t)
        if ham.functional.is_hybrid:
            ham.set_exchange_sources(phi_t, d)
        return -1j * unrotate_orbitals(ham.apply_real(phi_t), q)

    def step(self, state: TDState, dt: float) -> Tuple[TDState, StepStats]:
        phi, sigma, t = state.phi, state.sigma, state.time
        d, q = diagonalize_sigma(hermitize(sigma))
        k1 = self._rhs(phi, d, q, t)
        k2 = self._rhs(phi + 0.5 * dt * k1, d, q, t + 0.5 * dt)
        k3 = self._rhs(phi + 0.5 * dt * k2, d, q, t + 0.5 * dt)
        k4 = self._rhs(phi + dt * k3, d, q, t + dt)
        phi_new = phi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        stats = StepStats(
            scf_iterations=4,
            fock_applications=4 if self.ham.functional.is_hybrid else 0,
        )
        return TDState(phi_new, sigma.copy(), t + dt), stats
