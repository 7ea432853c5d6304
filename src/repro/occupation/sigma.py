"""Occupation-matrix (sigma) algebra for mixed-state PT dynamics.

In the parallel-transport gauge at finite temperature the occupation
matrix ``sigma`` is a full Hermitian N x N matrix evolving by
``i d(sigma)/dt = [Phi* H Phi, sigma]`` (paper Eq. (3)).  The key
optimization of Sec. IV-A1 is the eigen-decomposition
``sigma = Q D Q*``: rotating orbitals by Q reduces both the density and
the Fock-exchange evaluation to pure-state (diagonal-weight) form.

This module provides that decomposition plus the two density kernels —
*pairwise* (baseline, N^2 band products, kept as the reference) and
*diag* (N products) — whose numerical identity is a core test of the
reproduction.

Decompose once, rotate on the sphere.  sigma reaches every consumer in
one form, its eigenbasis image ``(phi~ = Phi Q, d)``: a propagator in
``repro.rt`` decomposes once (a PT-IM midpoint rotates its *sphere
block*, ``c~ = Q^T c_mid``, ``npw`` wide, before the one transform it
makes anyway) and hands on the rows ``phi~`` with the vector ``d``.
The density, ``H``, the ACE build and every energy and the current take
that pair and neither decompose nor rotate again.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.grid.fftgrid import PlaneWaveGrid
from repro.utils.validation import check_hermitian, check_square, require


def initial_sigma(occupations: np.ndarray) -> np.ndarray:
    """Diagonal sigma(0) from Fermi-Dirac fractions (paper Fig. 8(c))."""
    f = np.asarray(occupations, dtype=float)
    require(f.ndim == 1, "occupations must be a vector")
    require(bool(np.all((f >= -1e-12) & (f <= 1.0 + 1e-12))), "occupations must lie in [0, 1]")
    return np.diag(f).astype(complex)


def hermitize(sigma: np.ndarray) -> np.ndarray:
    """Conjugate-symmetrize (Alg. 1 line 13): ``(sigma + sigma*)/2``."""
    check_square(sigma, "sigma")
    return 0.5 * (sigma + sigma.conj().T)


def trace_sigma(sigma: np.ndarray) -> float:
    """Real trace of sigma — conserved particle number (per spin channel)."""
    return float(np.trace(sigma).real)


def diagonalize_sigma(sigma: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition ``sigma = Q diag(d) Q*`` (paper Eq. (11)).

    Returns ``(d, Q)`` with eigenvalues ascending.  Requires sigma
    Hermitian (it is kept so by :func:`hermitize` each step).
    """
    check_hermitian(sigma, "sigma", atol=1e-8)
    d, q = np.linalg.eigh(sigma)
    return d, q


def rotate_orbitals(phi: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Basis change ``phi_tilde = Phi Q`` (orbitals are rows: ``Q^T @ Phi``)."""
    return np.ascontiguousarray(q.T @ phi)


def unrotate_orbitals(phi_tilde: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rotate_orbitals` for unitary ``q``: rows ``conj(Q) @ Phi_tilde``."""
    return q.conj() @ phi_tilde


def sigma_commutator(h_sub: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``[H_sub, sigma]`` — the generator of sigma dynamics in Eq. (6)."""
    return h_sub @ sigma - sigma @ h_sub


def density_from_orbitals_pairwise(
    grid: PlaneWaveGrid,
    phi: np.ndarray,
    sigma: np.ndarray,
    degeneracy: float = 1.0,
) -> np.ndarray:
    """Baseline mixed-state density ``rho(r) = Σ_ij sigma_ij phi_i(r) phi_j*(r)``.

    O(N^2 Ng) band-pair work (paper Sec. III-C1).  ``phi``: real-space
    orbital rows ``(N, ngrid)``.  Returns a real flat density.
    """
    check_square(sigma, "sigma")
    require(sigma.shape[0] == phi.shape[0], "sigma size must match band count")
    # rho(r) = sum_ij sigma_ij phi_i(r) conj(phi_j(r)) = diag(Phi^T sigma^T conj(Phi))
    weighted = sigma.T @ phi  # (N, ngrid): row j = sum_i sigma_ij phi_i
    rho = np.einsum("jr,jr->r", weighted, phi.conj())
    return degeneracy * rho.real


def density_from_orbitals_diag(
    grid: PlaneWaveGrid,
    phi: np.ndarray,
    d: np.ndarray,
    degeneracy: float = 1.0,
) -> np.ndarray:
    """Diag-optimized density ``Σ_i d_i |phi~_i|^2`` of sigma's eigenbasis
    image: real-space rows ``phi~ = Phi Q`` and eigenvalues ``d``.

    Numerically identical to the pairwise path (tested), with O(N Ng)
    accumulation after the caller's rotation — the paper's Sec. IV-A1
    density reduction.
    """
    rho = np.einsum("i,ir->r", d, (phi.conj() * phi).real)
    return degeneracy * rho


def clip_and_normalize(rho: np.ndarray, n_electrons: float, dv: float) -> np.ndarray:
    """``rho`` clipped at 0 and scaled to ``n_electrons`` against quadrature
    drift (a new array); a density with nothing left is not scaled."""
    rho = np.maximum(rho, 0.0)
    total = rho.sum() * dv
    if total > 0:
        rho *= n_electrons / total
    return rho

