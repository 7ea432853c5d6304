"""Adaptively Compressed Exchange (ACE) operator — Lin, JCTC 12, 2242 (2016).

Given the action of the dense operator on a set of orbitals,
``W_i = V_x phi_i``, ACE builds the low-rank surrogate

``V_ACE = -Σ_k |xi_k><xi_k|``

that reproduces the dense operator *exactly on the span of the generating
orbitals* (``V_ACE phi_i = W_i``) and approximates it elsewhere.  The
paper (Sec. IV-A2) constructs two such operators per PT-IM step (at t_n
and the midpoint) in the outer SCF, replacing the N^2-FFT dense
application by two skinny GEMMs in each of the ~13 inner iterations.

Construction: ``M_kl = <phi_k|W_l>`` is Hermitian negative semidefinite
(for occupation weights in [0, 1] and a positive-definite kernel);
factor ``-M = L L^*`` and set ``xi = W L^{-*}``.  We use an
eigendecomposition-based factorization, robust to the rank deficiency
that occurs when some occupations vanish.

Representation.  Everything here is inner products and row combinations,
so the operator lives in whichever isometric representation its ``xi``
rows were built in (``grid/fftgrid.py``): the solvers build it from
sphere blocks — ``W`` packed once per build — and apply it to sphere
blocks, which is the ``P_ecut V_ACE P_ecut`` the Hamiltonian applies
anyway at ``npw / ngrid`` of the GEMM width; real-space rows work the
same way.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.grid.fftgrid import PlaneWaveGrid
from repro.trace import traced
from repro.utils.validation import require


class ACEOperator:
    """Low-rank compressed exchange operator.

    Build via :meth:`from_dense_action`; apply with :meth:`apply`.
    """

    def __init__(self, grid: PlaneWaveGrid, xi: np.ndarray) -> None:
        require(
            xi.ndim == 2 and xi.shape[1] in (grid.npw, grid.ngrid),
            "xi must be (rank, npw) or (rank, ngrid)",
        )
        self.grid = grid
        #: compressed exchange vectors: sphere-block or real-space rows
        self.xi = xi

    @classmethod
    def from_dense_action(
        cls,
        grid: PlaneWaveGrid,
        phi: np.ndarray,
        w: np.ndarray,
        rank_tol: float = 1e-10,
    ) -> "ACEOperator":
        """Compress from ``W = V_x Phi`` evaluated by the dense operator.

        Parameters
        ----------
        phi:
            Generating orbitals, a sphere block ``(N, npw)`` or real-space
            rows ``(N, ngrid)``.
        w:
            Dense action ``V_x Phi`` on the same orbitals, same
            representation.
        rank_tol:
            Relative eigenvalue threshold below which modes are dropped
            (rank adaptivity).
        """
        require(phi.shape == w.shape, "phi and W shapes must match")
        m = grid.inner(phi, w)  # M_kl = <phi_k | W_l>
        m = 0.5 * (m + m.conj().T)
        # -M = U diag(lam) U^*, lam >= 0 up to round-off
        lam, u = np.linalg.eigh(-m)
        lam = np.where(lam > 0.0, lam, 0.0)
        keep = lam > rank_tol * max(lam.max(), 1e-300)
        if not np.any(keep):
            return cls(grid, np.zeros((0, phi.shape[1]), dtype=complex))
        # xi = W U lam^{-1/2} (kept modes); then V_ACE = -xi xi^*
        factors = u[:, keep] / np.sqrt(lam[keep])[None, :]
        xi = factors.T @ w  # (rank, width of w)
        return cls(grid, np.ascontiguousarray(xi))

    @property
    def rank(self) -> int:
        return self.xi.shape[0]

    @traced("hamiltonian.ace.apply")
    def apply(self, psi: np.ndarray) -> np.ndarray:
        """``V_ACE psi = -xi (xi | psi)`` for a band block in ``xi``'s representation.

        Two GEMMs of size ``rank x npw`` — the inner-SCF fast path.
        """
        if self.rank == 0:
            return np.zeros_like(psi)
        amps = (self.xi.conj() @ psi.T) * self.grid.dv  # (rank, nb)
        return -(amps.T @ self.xi)

    def exchange_energy(self, phi: np.ndarray, d: np.ndarray, degeneracy: float = 1.0) -> float:
        """``(deg/2) Σ_i d_i <phi~_i|V_ACE phi~_i>`` on sigma's eigenbasis
        image ``(phi~, d)`` (see :meth:`FockExchangeOperator.exchange_energy`),
        with ``<psi|V_ACE psi> = -Σ_k |<xi_k|psi>|^2``: one GEMM."""
        require(np.ndim(d) == 1, "exchange energy takes sigma's eigenvalues; decompose sigma first")
        amps = (self.xi.conj() @ phi.T) * self.grid.dv  # (rank, nb)
        return -0.5 * degeneracy * float(np.dot(d, (amps.conj() * amps).real.sum(axis=0)))
