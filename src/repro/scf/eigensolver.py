"""Blocked Davidson eigensolver with a Teter–Payne–Allan preconditioner.

Finds the lowest ``nbands`` eigenpairs of the (Hermitian) Kohn–Sham
Hamiltonian, given only the ``H Phi`` application.  This is the
Rayleigh–Ritz machinery PWDFT runs in grid-point parallelization; here it
operates on sphere blocks ``(nbands, npw)`` (``grid/fftgrid.py``): the
residual, the preconditioner, every projection and the Ritz rotations
are ``npw`` wide and transform-free, and only ``H`` visits real space.
The orthonormalization helpers are inner products and row combinations,
so they serve real-space rows (the end of an RT step) just as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from repro.grid.fftgrid import PlaneWaveGrid
from repro.utils.validation import require


def _inverse_sqrt(s: np.ndarray) -> np.ndarray:
    """``S^{-1/2}`` of a Hermitian positive-definite overlap matrix."""
    lam, u = np.linalg.eigh(s)
    require(bool(lam.min() > 1e-14), "orbital block is numerically rank deficient")
    return (u / np.sqrt(lam)[None, :]) @ u.conj().T


def lowdin_orthonormalize(grid: PlaneWaveGrid, phi: np.ndarray) -> np.ndarray:
    """Löwdin (symmetric) orthonormalization ``Phi S^{-1/2}``.

    Used after each PT-IM step (Alg. 1 line 13): it is the unique
    orthonormalization closest to the input block, preserving the
    parallel-transport property better than QR.
    """
    return np.ascontiguousarray(_inverse_sqrt(grid.inner(phi, phi)).T @ phi)


def canonical_orthonormalize(
    grid: PlaneWaveGrid, phi: np.ndarray, drop_tol: float = 1e-10
) -> np.ndarray:
    """Canonical orthonormalization dropping (near-)null directions.

    Used for the expanded Davidson search space, where correction vectors
    of converged bands can be linearly dependent on the current block.
    """
    s = grid.inner(phi, phi)
    lam, u = np.linalg.eigh(s)
    keep = lam > drop_tol * max(float(lam.max()), 1e-300)
    basis = (u[:, keep] / np.sqrt(lam[keep])[None, :]).T @ phi
    return np.ascontiguousarray(basis)


def teter_preconditioner(grid: PlaneWaveGrid, c: np.ndarray, ekin_band: np.ndarray) -> np.ndarray:
    """Teter–Payne–Allan preconditioner applied to a sphere block.

    ``K(x) = poly(x) / (poly(x) + 16 x^4)`` with ``x = |G|^2/2 / ekin_band``
    — damps high-G residual components scaled by each band's kinetic
    energy.
    """
    x = grid.kinetic_sphere[None, :] / np.maximum(ekin_band, 1e-8)[:, None]
    poly = 27.0 + x * (18.0 + x * (12.0 + x * 8.0))
    x2 = x * x
    return c * (poly / (poly + 16.0 * x2 * x2))


def _generalized_lowest(h: np.ndarray, s: np.ndarray, nb: int):
    """Lowest ``nb`` eigenpairs of the generalized problem ``H v = e S v``.

    Solved via canonical orthogonalization of S (dropping null modes), so
    mildly ill-conditioned expansion bases remain stable.
    """
    lam, u = np.linalg.eigh(s)
    keep = lam > 1e-12 * float(lam.max())
    t = u[:, keep] / np.sqrt(lam[keep])[None, :]
    h_t = t.conj().T @ h @ t
    h_t = 0.5 * (h_t + h_t.conj().T)
    e, v = np.linalg.eigh(h_t)
    return e[:nb], (t @ v[:, :nb])


def _normalize_rows(block: np.ndarray, dv: float, floor: float = 1e-30) -> np.ndarray:
    """Scale each row to unit L2 norm; drop-safe for (near-)zero rows."""
    norms = np.sqrt(np.einsum("ij,ij->i", block.conj(), block).real * dv)
    keep = norms > floor
    out = block[keep] / norms[keep][:, None]
    return out


@dataclass
class DavidsonResult:
    eigenvalues: np.ndarray
    orbitals: np.ndarray
    residual_norms: np.ndarray
    iterations: int
    converged: bool


def davidson(
    grid: PlaneWaveGrid,
    apply_h: Callable[[np.ndarray], np.ndarray],
    phi0: np.ndarray,
    tol: float = 1e-7,
    max_iter: int = 60,
    nconv: Optional[int] = None,
) -> DavidsonResult:
    """Blocked Davidson iteration for the lowest eigenpairs.

    Parameters
    ----------
    apply_h:
        Maps a sphere block ``(nb, npw)`` to ``H Phi`` (a sphere block).
    phi0:
        Starting sphere block (rows); ``DavidsonResult.orbitals`` is one too.
    tol:
        Convergence threshold on the max residual 2-norm.
    nconv:
        Number of lowest bands whose residuals gate convergence (default:
        all).  Callers add guard bands above the physically needed ones so
        convergence is not stalled by a degenerate cluster cut at the top
        of the block.

    The search space is ``[X, K r]`` (block size 2N) with Rayleigh–Ritz
    restart each iteration — a memory-lean variant adequate for the
    band counts used here.

    ``H`` is applied once to the entry block and afterwards only to the
    new directions ``t``.  ``H`` (cutoff projection and exchange term
    included) is linear in the block, so every later ``H X`` is the same
    row combination of stored products that built ``X``: the subspace
    rotation gives ``X <- V^T X``, ``H X <- V^T (H X)``, and the restart
    ``X <- R [X; t]``, ``H X <- R [H X; H t]`` with the one ``(N, 2N)``
    matrix ``R = (S'^{-1/2})^T V_2^T`` (``V_2`` the Ritz vectors of the
    expanded space, ``S' = V_2^* S V_2`` the overlap of ``V_2^T [X; t]``).
    ``H`` on the new directions is the only thing in the loop that
    transforms: 2N 3-D transforms per iteration (``Hamiltonian.apply``),
    where the real-space-row formulation spent 6N.  ``H`` changes between
    calls, so nothing is kept across them.
    """
    phi = lowdin_orthonormalize(grid, phi0.copy())
    nb = phi.shape[0]
    nconv = nb if nconv is None else min(nconv, nb)
    eig = np.zeros(nb)
    res_norms = np.full(nb, np.inf)
    h_phi = apply_h(phi)

    for it in range(1, max_iter + 1):
        h_sub = grid.inner(phi, h_phi)
        h_sub = 0.5 * (h_sub + h_sub.conj().T)
        eig, vec = np.linalg.eigh(h_sub)
        phi = np.ascontiguousarray(vec.T @ phi)
        h_phi = np.ascontiguousarray(vec.T @ h_phi)

        resid = h_phi - eig[:, None] * phi
        res_norms = np.sqrt(np.einsum("ij,ij->i", resid.conj(), resid).real * grid.dv)
        if res_norms[:nconv].max() < tol:
            return DavidsonResult(eig, phi, res_norms, it, True)

        # preconditioned correction directions; the TPA scale is the
        # band kinetic energy <phi|T|phi>, not the (possibly negative)
        # eigenvalue
        ekin_band = grid.dv * np.einsum(
            "ng,g,ng->n", phi.conj(), grid.kinetic_sphere, phi
        ).real
        corr = teter_preconditioner(grid, resid, np.maximum(ekin_band, 0.1))

        # Davidson expansion space [X, t]: project the preconditioned
        # residuals against X, renormalize row-wise (near-converged bands
        # otherwise contribute O(res^2) Gram entries and get lost), then
        # orthonormalize the correction block alone.
        corr -= grid.inner(phi, corr).T @ phi
        corr = _normalize_rows(corr, grid.dv)
        if corr.shape[0] == 0:
            return DavidsonResult(eig, phi, res_norms, it, res_norms[:nconv].max() < tol)
        corr = canonical_orthonormalize(grid, corr, drop_tol=1e-8)
        corr -= grid.inner(phi, corr).T @ phi  # re-project (round-off)
        basis = np.vstack([phi, corr])
        h_basis = np.vstack([h_phi, apply_h(corr)])
        h_sub2 = grid.inner(basis, h_basis)
        h_sub2 = 0.5 * (h_sub2 + h_sub2.conj().T)
        s_sub2 = grid.inner(basis, basis)
        s_sub2 = 0.5 * (s_sub2 + s_sub2.conj().T)
        _, vec2 = _generalized_lowest(h_sub2, s_sub2, nb)
        # Rayleigh–Ritz restart and Löwdin step as one rotation R
        rot = _inverse_sqrt(vec2.conj().T @ s_sub2 @ vec2).T @ vec2.T
        phi = np.ascontiguousarray(rot @ basis)
        h_phi = np.ascontiguousarray(rot @ h_basis)

    return DavidsonResult(eig, phi, res_norms, max_iter, False)
