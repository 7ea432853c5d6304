"""Kinetic-energy operator, optionally minimally coupled to a laser field.

In the velocity gauge the time-dependent external field enters through
the vector potential: ``T(t) = (1/2) |G + A(t)|^2`` — diagonal in G space,
which keeps the propagation periodic-safe (no sawtooth potential needed
for the dynamics; the length-gauge option lives in the local potential).
The diagonal is held on the cutoff sphere and acts on sphere blocks
``(..., npw)`` (see ``grid/fftgrid.py``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.grid.fftgrid import PlaneWaveGrid
from repro.trace import traced


class KineticOperator:
    """Diagonal (in G) kinetic operator ``|G + A|^2 / 2``."""

    def __init__(self, grid: PlaneWaveGrid) -> None:
        self.grid = grid
        self._g_cart = grid.gvec.cartesian.reshape(-1, 3)[grid.sphere_index]  # (npw, 3)
        self._a = np.zeros(3)
        self._diag = grid.kinetic_sphere

    def set_vector_potential(self, a: Optional[np.ndarray]) -> None:
        """Update A(t), ``None`` for the field-free operator; an unchanged
        A(t) (PT-IM's inner iterations) keeps the diagonal."""
        if a is None:
            a = np.zeros(3)
        a = np.asarray(a, dtype=float)
        if a.shape != (3,):
            raise ValueError(f"vector potential must be a 3-vector, got shape {a.shape}")
        if np.array_equal(a, self._a):
            return
        self._a = a.copy()
        self._diag = self.grid.kinetic_sphere + (self._g_cart @ a) + 0.5 * float(a @ a)

    @property
    def vector_potential(self) -> np.ndarray:
        return self._a.copy()

    @property
    def diagonal_g(self) -> np.ndarray:
        """Current kinetic diagonal on the cutoff sphere, shape ``(npw,)``."""
        return self._diag

    @traced("hamiltonian.kinetic.apply_g")
    def apply_g(self, phi_g: np.ndarray) -> np.ndarray:
        """Apply to a sphere block ``(..., npw)``."""
        out = np.empty_like(np.asarray(phi_g))
        np.multiply(phi_g, self._diag, out=out)
        return out

    def energy(self, phi_g: np.ndarray, weights: np.ndarray) -> float:
        """``Σ_n w_n <phi_n|T|phi_n>`` for a sphere block (rows)."""
        per_band = self.grid.dv * np.einsum(
            "ng,g,ng->n", phi_g.conj(), self._diag, phi_g
        ).real
        return float(np.dot(np.asarray(weights, float), per_band))
