"""The Fock exchange operator — the paper's dominant cost.

Three evaluation kernels, all numerically equivalent (tested):

``apply_mixed_tripleloop``
    Paper Alg. 2 verbatim: for every (k, i, j) band triple the pair
    density ``phi_k* ⊙ phi_j`` is FFT'd, multiplied by the kernel,
    inverse-FFT'd and accumulated with weight ``sigma_ik`` — N^3 FFTs.
    The FFT result depends only on (k, j) but the memory-constrained
    distributed loop recomputes it per i, exactly as in PWDFT's baseline.

``apply_mixed_grouped``
    Reference N^2-FFT evaluation without diagonalizing sigma (pre-contract
    ``W = sigma^T Phi``); used to validate the other two.

``apply_diag``
    Sec. IV-A1: after ``sigma = Q D Q*`` and ``phi_tilde = Phi Q``, the
    operator takes the pure-state form Eq. (13) with diagonal weights;
    the caller (``repro.rt``) decomposes and rotates.  It is evaluated
    tile pair by tile pair.  The bands are cut into *tiles* of
    ``isqrt(batch_size)`` consecutive orbitals (4 for the default 16),
    so the pair densities ``phi_a* phi_b`` of one *tile pair* ``(I, J)``,
    ``a`` in ``I``, ``b`` in ``J``, fill one batched FFT.  Its potentials ``pot_ab`` yield the partial sum
    ``P[I->J]_b = Σ_a d_a phi_a pot_ab`` and ``V_x phi_J`` is
    ``-Σ_I P[I->J]`` summed in ascending ``I`` — an order fixed by band
    indices alone, which is what lets the subclass
    :class:`~repro.parallel.distfock.DistributedFockExchange` override
    this one method, hand tile pairs to any rank and stay bit-identical.
    The operator acts only on its own sources — every production call
    does: midpoint exchange, ACE build, exchange energy, the hybrid SCF —
    and the kernel is real and even in G, so ``pot_ba = conj(pot_ab)``:
    each unordered pair ``{I <= J}`` is transformed once and also yields
    ``P[J->I]_a = Σ_b d_b phi_b conj(pot_ab)`` — N(N+1)/2 Poisson solves
    instead of the paper's N^2.  Only the two references above take an
    arbitrary ``targets`` block.

Conventions: orbitals are real-space rows ``(N, ngrid)``; pair densities
carry the continuum normalization through ``grid.dv``-weighted inner
products; the returned blocks are ``V_x Phi`` *without* the hybrid mixing
fraction alpha (applied by the Hamiltonian).
"""

from __future__ import annotations

from math import isqrt
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.grid.fftgrid import PlaneWaveGrid
from repro.utils.validation import check_square, require

#: occupation weights at or below this contribute nothing as sources
WEIGHT_CUTOFF = 1e-14


def band_tiles(nbands: int, batch_size: int) -> List[slice]:
    """Consecutive band tiles whose pairs fill one ``batch_size`` FFT batch."""
    size = max(isqrt(batch_size), 1)
    return [slice(start, min(start + size, nbands)) for start in range(0, nbands, size)]


def symmetric_tile_pairs(
    tiles: List[slice], weights: np.ndarray
) -> Iterator[Tuple[int, int, Optional[np.ndarray]]]:
    """Unordered tile pairs ``(i, j, keep)``, ``i <= j``, of a self-application.

    Lexicographic order, which visits the contributions to any one tile
    in ascending source tile.  An orbital pair is needed unless *both*
    weights are negligible (an empty orbital is still a target):
    ``keep`` is the boolean ``(len I, len J)`` mask of needed pairs,
    ``None`` for all of them, and tile pairs needing none are left out.
    Decided from the full weight vector, so every rank count agrees.
    """
    active = np.abs(weights) > WEIGHT_CUTOFF
    for i, tile_i in enumerate(tiles):
        for j in range(i, len(tiles)):
            keep = active[tile_i, None] | active[None, tiles[j]]
            if keep.all():
                yield i, j, None
            elif keep.any():
                yield i, j, keep


class FockExchangeOperator:
    """Screened/bare Fock exchange on a plane-wave grid.

    Parameters
    ----------
    grid:
        Plane-wave grid.
    kernel_g:
        Flat G-space interaction kernel ``K(G)`` (see
        :mod:`repro.xc.kernels`).
    batch_size:
        Number of pair densities transformed per batched FFT call (the
        multi-batch optimization; paper uses 16).
    """

    def __init__(self, grid: PlaneWaveGrid, kernel_g: np.ndarray, batch_size: int = 16) -> None:
        require(kernel_g.shape == (grid.ngrid,), "kernel must be flat over the grid")
        # the self-application reuses pot_ab as conj(pot_ba), which holds
        # only for a kernel that is real and even under G -> -G
        if np.iscomplexobj(kernel_g) and np.any(np.imag(kernel_g) != 0.0):
            raise ValueError("exchange kernel must be real")
        box = grid.to_box(np.real(kernel_g))
        minus_g = np.ix_(*(-np.arange(n) % n for n in box.shape))
        if not np.allclose(box, box[minus_g], rtol=1e-12, atol=0.0):
            raise ValueError("exchange kernel must satisfy K(-G) = K(G)")
        self.grid = grid
        self.kernel_g = np.asarray(np.real(kernel_g), dtype=float)
        self.batch_size = int(batch_size)

    # -- pair-density convolution (the Poisson-like solves) -------------------
    def _pair_potential(self, pair_density: np.ndarray) -> np.ndarray:
        """``K * (pair density)`` for a batch ``(..., ngrid)``.

        Pair densities are always freshly formed temporaries, so both
        transforms run with ``consume=True`` — in place, so the whole
        pair-FFT hot loop allocates no transform results at all.
        """
        pg = self.grid.r_to_g(pair_density, consume=True)
        pg *= self.kernel_g
        return self.grid.g_to_r(pg, consume=True)

    # -- the tile-pair kernel ---------------------------------------------------
    def tile_potentials(
        self,
        left: np.ndarray,
        right: np.ndarray,
        keep: Optional[np.ndarray] = None,
        *,
        hermitian: bool = False,
    ) -> np.ndarray:
        """``pot[a, b] = K * (left_a^* right_b)`` as one ``(nl, nr, ngrid)`` block.

        Only the pairs in the boolean mask ``keep`` (default: all) are
        transformed; the others stay zero.  ``hermitian`` says ``right``
        is ``left``: of the kept pairs only ``a <= b`` are transformed
        and ``pot[b, a]`` is filled in as ``conj(pot[a, b])``.
        """
        nl, nr = left.shape[0], right.shape[0]
        if keep is None and not hermitian:
            pair = left.conj()[:, None, :] * right[None, :, :]
            return self._pair_potential(pair.reshape(nl * nr, -1)).reshape(nl, nr, -1)
        mask = np.ones((nl, nr), dtype=bool) if keep is None else keep
        ia, ib = np.nonzero(np.triu(mask) if hermitian else mask)
        pot = np.zeros((nl, nr, self.grid.ngrid), dtype=complex)
        pot[ia, ib] = self._pair_potential(left[ia].conj() * right[ib])
        if hermitian:
            off = ia != ib
            pot[ib[off], ia[off]] = pot[ia[off], ib[off]].conj()
        return pot

    def tile_pair_partials(
        self,
        phi: np.ndarray,
        weighted: np.ndarray,
        tile_i: slice,
        tile_j: slice,
        keep: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Both partial sums of the unordered tile pair ``{I <= J}`` of ``phi``.

        ``weighted`` is ``d[:, None] * phi``.  Returns ``(P[I->J],
        P[J->I])`` from one set of transforms; the second is ``None``
        on the diagonal ``I == J``.  The result depends on nothing but
        the two tiles and ``keep`` — whoever computes it gets these bits.
        """
        diagonal = tile_i == tile_j
        pot = self.tile_potentials(phi[tile_i], phi[tile_j], keep, hermitian=diagonal)
        forward = np.einsum("ar,abr->br", weighted[tile_i], pot)
        if diagonal:
            return forward, None
        # Σ_b w_b conj(pot_ab) = conj(Σ_b conj(w_b) pot_ab): no conj(pot) temporary
        return forward, np.einsum("br,abr->ar", weighted[tile_j].conj(), pot).conj()

    # -- pure-state / diagonalized form (Eq. (13)) -----------------------------
    def apply_diag(self, phi_src: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``(V_x phi_j)(r) = -Σ_i d_i phi_i(r) [K * (phi_i^* phi_j)](r)`` on the sources.

        ``phi_src``: source orbitals (rows), ``weights``: their occupation
        weights ``d_i`` in [0, 1].  The operator acts on its own sources:
        every unordered orbital pair is transformed once (N(N+1)/2 FFT
        pairs), ``batch_size`` pair densities per batched transform.
        """
        weights = np.asarray(weights, dtype=float)
        require(weights.shape == (phi_src.shape[0],), "one weight per source orbital")
        acc = np.zeros_like(phi_src)
        weighted = weights[:, None] * phi_src
        tiles = band_tiles(phi_src.shape[0], self.batch_size)
        for i, j, keep in symmetric_tile_pairs(tiles, weights):
            forward, backward = self.tile_pair_partials(phi_src, weighted, tiles[i], tiles[j], keep)
            acc[tiles[j]] += forward
            if backward is not None:
                acc[tiles[i]] += backward
        return np.negative(acc, out=acc)

    # -- mixed-state baseline (paper Alg. 2) -----------------------------------
    def apply_mixed_tripleloop(
        self, phi: np.ndarray, sigma: np.ndarray, targets: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Alg. 2: N^3 band-by-band FFTs with per-i recomputation.

        Faithful to the memory-constrained distributed loop: the (k, j)
        pair potential is recomputed inside the i loop.  Use only for
        small N (tests, micro-benchmarks).
        """
        check_square(sigma, "sigma")
        n = phi.shape[0]
        require(sigma.shape[0] == n, "sigma must match band count")
        if targets is None:
            targets = phi
        out = np.zeros_like(targets)
        for k in range(n):
            for i in range(n):
                s_ik = sigma[i, k]
                if abs(s_ik) < 1e-15:
                    continue
                for j in range(targets.shape[0]):
                    pair = phi[k].conj() * targets[j]
                    pot = self._pair_potential(pair)
                    out[j] -= s_ik * phi[i] * pot
        return out

    def apply_mixed_grouped(
        self, phi: np.ndarray, sigma: np.ndarray, targets: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """N^2-FFT mixed-state reference: contract over i before the k loop.

        ``V_x psi_j = -Σ_k W_k(r) [K * (phi_k^* psi_j)](r)`` with
        ``W = sigma^T Phi`` (row k = Σ_i sigma_ik phi_i).  Validates both
        the triple loop and the diagonalized path.
        """
        check_square(sigma, "sigma")
        require(sigma.shape[0] == phi.shape[0], "sigma must match band count")
        if targets is None:
            targets = phi
        w_rows = sigma.T @ phi  # (N, ngrid)
        out = np.zeros_like(targets)
        n = phi.shape[0]
        for j in range(targets.shape[0]):
            acc = np.zeros(self.grid.ngrid, dtype=complex)
            for start in range(0, n, self.batch_size):
                blk = slice(start, min(start + self.batch_size, n))
                pair = phi[blk].conj() * targets[j][None, :]
                pot = self._pair_potential(pair)
                acc += np.einsum("kr,kr->r", w_rows[blk], pot)
            out[j] = -acc
        return out

    # -- energy -----------------------------------------------------------------
    def exchange_energy(
        self,
        phi: np.ndarray,
        d: np.ndarray,
        degeneracy: float = 1.0,
        vx_phi: Optional[np.ndarray] = None,
    ) -> float:
        """``E_x = (deg/2) Σ_i d_i Re <phi~_i|V_x phi~_i>`` (no alpha factor).

        ``(phi, d)`` is sigma's eigenbasis image, as for :meth:`apply_diag`;
        ``vx_phi`` is ``V_x phi`` when the caller has it.  Derivation:
        ``E_x = (deg/2) Tr[P V_x]`` with ``P = Phi~ D Phi~^*`` is ``Tr[D O]``,
        ``O_kl = <phi~_k|V_x phi~_l>``: only the overlap's diagonal enters.
        """
        require(np.ndim(d) == 1, "exchange energy takes sigma's eigenvalues; decompose sigma first")
        if vx_phi is None:
            vx_phi = self.apply_diag(phi, d)
        diag = np.einsum("ir,ir->i", phi.conj(), vx_phi).real * self.grid.dv
        return 0.5 * degeneracy * float(np.dot(d, diag))
