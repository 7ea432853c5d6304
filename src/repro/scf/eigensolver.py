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
from repro.occupation.sigma import hermitize
from repro.trace import traced
from repro.utils.validation import require


def _inverse_sqrt(s: np.ndarray) -> np.ndarray:
    """``S^{-1/2}`` of a Hermitian positive-definite overlap matrix."""
    lam, u = np.linalg.eigh(s)
    require(bool(lam.min() > 1e-14), "orbital block is numerically rank deficient")
    return (u / np.sqrt(lam)[None, :]) @ u.conj().T


@traced("scf.lowdin")
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


@traced("scf.davidson")
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

    The search space is ``[X; t]``: the current block and one
    preconditioned correction row per *active* band, with a Rayleigh–Ritz
    restart each iteration — a memory-lean variant adequate for the band
    counts used here.

    **What is orthonormal, and why.**  ``X`` is Löwdin-orthonormal on entry
    and afterwards always ``V^T`` times an orthonormal set with ``V`` the
    orthonormal eigenvector columns of a Hermitian matrix, so it stays
    orthonormal to round-off (no drift: 120 restarts at ``tol = 0`` leave
    ``|S - I|`` at 3e-14).  ``t`` is canonically orthonormalized and
    projected against ``X`` twice.  ``[X; t]`` therefore has unit overlap
    by construction and the Ritz step is one standard ``eigh`` of
    ``[X; t]^* H [X; t]``: no overlap matrix is built, decomposed or
    re-Löwdinized.  After a restart ``X`` *is* the Ritz basis and ``eig``
    its Ritz values, so the ``N x N`` projected problem is solved once, on
    entry.  Two decompositions per iteration remain: the Gram matrix of the
    correction rows and the expanded projected Hamiltonian.

    **Active set.**  Only bands whose residual is still ``>= tol``, and the
    guard bands above ``nconv`` (their residuals gate nothing, and they
    shield the gated bands only while they keep improving), contribute a
    correction row; ``H`` and the Gram products see ``N + N_active`` rows.
    Converged bands stay in ``X`` and keep rotating with it (soft locking),
    so a band that a later rotation pushes back above ``tol`` rejoins.

    ``H`` is applied once to the entry block and afterwards only to the
    new directions ``t``.  ``H`` (cutoff projection and exchange term
    included) is linear in the block, so every later ``H X`` is the same
    row combination of stored products that built ``X``: the restart is
    ``X <- V^T [X; t]``, ``H X <- V^T [H X; H t]`` with ``V`` the lowest
    ``N`` Ritz vectors of the expanded space.  ``H`` on the new directions
    is the only thing in the loop that transforms: ``2 N_active`` 3-D
    transforms per iteration (``Hamiltonian.apply``).  ``H`` changes
    between calls, so nothing is kept across them.

    On a ``max_iter`` exit ``eigenvalues`` and ``residual_norms`` describe
    the block the last iteration started from; ``orbitals`` has had that
    iteration's restart on top.
    """
    phi = lowdin_orthonormalize(grid, phi0.copy())
    nb = phi.shape[0]
    nconv = nb if nconv is None else min(nconv, nb)
    eig = np.zeros(nb)
    res_norms = np.full(nb, np.inf)
    h_phi = apply_h(phi)
    ritz, vec = np.linalg.eigh(hermitize(grid.inner(phi, h_phi)))
    phi = np.ascontiguousarray(vec.T @ phi)
    h_phi = np.ascontiguousarray(vec.T @ h_phi)

    for it in range(1, max_iter + 1):
        eig = ritz
        resid = h_phi - eig[:, None] * phi
        res_norms = np.sqrt(np.einsum("ij,ij->i", resid.conj(), resid).real * grid.dv)
        if res_norms[:nconv].max() < tol:
            return DavidsonResult(eig, phi, res_norms, it, True)
        active = res_norms >= tol
        active[nconv:] = True

        # preconditioned correction directions; the TPA scale is the
        # band kinetic energy <phi|T|phi>, not the (possibly negative)
        # eigenvalue
        x = phi[active]
        ekin_band = grid.dv * np.einsum("ng,g,ng->n", x.conj(), grid.kinetic_sphere, x).real
        corr = teter_preconditioner(grid, resid[active], np.maximum(ekin_band, 0.1))

        # Davidson expansion space [X; t]: project the preconditioned
        # residuals against X, renormalize row-wise (a guard band that
        # happens to be converged otherwise contributes O(res^2) Gram
        # entries and gets lost), then orthonormalize the correction
        # block alone.
        corr -= grid.inner(phi, corr).T @ phi
        corr = _normalize_rows(corr, grid.dv)
        if corr.shape[0] == 0:
            return DavidsonResult(eig, phi, res_norms, it, res_norms[:nconv].max() < tol)
        corr = canonical_orthonormalize(grid, corr, drop_tol=1e-8)
        corr -= grid.inner(phi, corr).T @ phi  # re-project (round-off)
        basis = np.vstack([phi, corr])
        h_basis = np.vstack([h_phi, apply_h(corr)])
        ritz2, vec2 = np.linalg.eigh(hermitize(grid.inner(basis, h_basis)))
        # Rayleigh–Ritz restart: the lowest N Ritz pairs of the expanded space
        ritz, rot = ritz2[:nb], vec2[:, :nb].T
        phi = np.ascontiguousarray(rot @ basis)
        h_phi = np.ascontiguousarray(rot @ h_basis)

    return DavidsonResult(eig, phi, res_norms, max_iter, False)
