"""The Fock exchange operator — the paper's dominant cost.

One evaluation kernel, :meth:`FockExchangeOperator.apply_diag`.
Sec. IV-A1: after ``sigma = Q D Q*`` and ``phi_tilde = Phi Q``, the
operator takes the pure-state form Eq. (13) with diagonal weights;
the caller (``repro.rt``) decomposes and rotates.  It is evaluated
tile pair by tile pair.  The bands are cut into *tiles* of
``isqrt(batch_size)`` consecutive orbitals (4 for the default 16),
so the pair densities ``phi_a* phi_b`` of one *tile pair* ``(I, J)``,
``a`` in ``I``, ``b`` in ``J``, fill one batched FFT.  Its potentials ``pot_ab`` yield the partial sum
``P[I->J]_b = Σ_a d_a phi_a pot_ab`` and ``V_x phi_J`` is
``-Σ_I P[I->J]`` summed in ascending ``I`` — an order fixed by band
indices alone, so who computes a tile pair does not move a bit.
Weights are applied per tile, ``d[t, None] * phi[t]``, where a tile
pair uses them: no rank holds a weighted copy of its sources.
The operator acts only on its own sources — every production call
does: midpoint exchange, ACE build, exchange energy, the hybrid SCF —
and the kernel is real and even in G, so ``pot_ba = conj(pot_ab)``:
each unordered pair ``{I <= J}`` is transformed once and also yields
``P[J->I]_a = Σ_b d_b phi_b conj(pot_ab)`` — N(N+1)/2 Poisson solves
instead of the paper's N^2.  Every unordered pair is transformed
whatever the weights, so the tile-pair schedule (which pairs, in which
order, on which rank) depends on the band count and ``batch_size``
only, never on the data.  At the paper's finite temperatures every
weight is a positive occupation; an input with zero weights also
transforms the pairs of two empty orbitals, which add zero.  It is
written once, as the rank program of the band-parallel exchange
(Sec. IV-B, Fig. 5),
:meth:`FockExchangeOperator.self_application`, and run here on one
rank by :func:`lockstep`, every request answered with the rank's own
part: no communicator, no ledger.

The paper's Alg. 2 triple loop (N^3 transforms, sigma undecomposed) and
the grouped N^2 mixed-state reference it is checked against are test
oracles (``tests/oracles.py``); no run takes them.

Conventions: orbitals are real-space rows ``(N, ngrid)``; pair densities
carry the continuum normalization through ``grid.dv``-weighted inner
products; the returned blocks are ``V_x Phi`` *without* the hybrid mixing
fraction alpha (applied by the Hamiltonian).
"""

from __future__ import annotations

from itertools import combinations_with_replacement, groupby
from math import isqrt
from typing import (
    Any, Callable, Generator, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from repro.backend.base import TRANSFORMS
from repro.grid.fftgrid import PlaneWaveGrid
from repro.trace import recorder, traced
from repro.utils.validation import require


def band_tiles(nbands: int, batch_size: int) -> List[slice]:
    """Consecutive band tiles whose pairs fill one ``batch_size`` FFT batch."""
    size = max(isqrt(batch_size), 1)
    return [slice(start, min(start + size, nbands)) for start in range(0, nbands, size)]


def symmetric_tile_pairs(tiles: List[slice]) -> Iterator[Tuple[int, int]]:
    """Unordered tile pairs ``(i, j)``, ``i <= j``, of a self-application.

    Lexicographic order, which visits the contributions to any one tile
    in ascending source tile.  Every pair, whatever the weights: the
    schedule is the tile list's alone, so every rank count agrees on it.
    """
    return combinations_with_replacement(range(len(tiles)), 2)


class Collective(NamedTuple):
    """A request a rank program yields, then is sent the reply to: ``op``
    names the collective, ``data`` is this rank's part (for
    ``alltoallv_blocks``, a list of arrays per destination rank) and
    ``args`` what every rank passes alike."""

    op: str
    data: Any
    args: Tuple = ()


RankProgram = Generator[Collective, Any, Any]


def rank_transforms(rank: int) -> str:
    """The count of the 3-D transforms rank ``rank`` of a :func:`lockstep` run made."""
    return f"lockstep.rank{rank}.transforms"


def lockstep(
    programs: Sequence[RankProgram], answer: Callable[[str, Tuple, List[Any]], List[Any]]
) -> List[Any]:
    """Run one rank program per rank in lockstep: each round advances every
    program to its next request, then ``answer(op, args, parts)`` replies
    to all of them at once, one reply per rank.

    Requests that differ in collective or arguments raise ``RuntimeError``
    naming each rank's, before ``answer`` sees them; an exception inside a
    program propagates unchanged, before its round is answered, and every
    program is closed.  Returns the programs' results, once each rank's
    share of the transforms (the advance of the tally's transform count
    while it ran) is counted as :func:`rank_transforms`."""
    rec = recorder()
    counts = rec.counts
    transforms = [0] * len(programs)
    replies: List[Any] = [None] * len(programs)
    try:
        while True:
            requests: List[Collective] = []
            for r, program in enumerate(programs):
                before = counts.get(TRANSFORMS, 0)
                try:
                    requests.append(program.send(replies[r]))
                except StopIteration as done:
                    # the value only: the exception's traceback holds this frame
                    requests.append(Collective("returned", done.value))
                transforms[r] += counts.get(TRANSFORMS, 0) - before
            asked = [(q.op, q.args) for q in requests]
            if len(set(asked)) > 1:
                ranks = "; ".join(f"rank {r}: {op}{args}" for r, (op, args) in enumerate(asked))
                raise RuntimeError(f"rank programs out of step: {ranks}")
            if asked[0][0] == "returned":
                for r, n in enumerate(transforms):
                    rec.count(rank_transforms(r), n)
                return [q.data for q in requests]
            replies = answer(*asked[0], [q.data for q in requests])  # unnamed: freed with the replies
    finally:
        for program in programs:
            program.close()


class _Rows:
    """The sources' rows, read from the shards that hold them in band
    order: a slice is a view into one shard, or joined where it straddles two."""

    def __init__(self, blocks: Sequence[np.ndarray]) -> None:
        self.blocks, self.starts = blocks, np.cumsum([0, *map(len, blocks)])

    def __getitem__(self, rows: slice) -> np.ndarray:
        parts = [b[max(rows.start - lo, 0) : rows.stop - lo] for b, lo in zip(self.blocks, self.starts)
                 if lo < rows.stop and lo + len(b) > rows.start]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _sources(shard, weight_shard, nbands: int, rank: int, p: int, pattern: str) -> RankProgram:
    """Every rank's ``(shard, weight_shard)`` on this rank, in band order,
    through ``pattern`` (Fig. 5): each owner broadcasts its shard
    (``bcast``), or shards rotate one neighbor hop per step (``ring``);
    an ``async-ring`` orbital hop overlaps the ``(nbands + 1) / (2 p)``
    pair solves per orbital in hand, the weights riding synchronous hops.
    The orbitals stay its shard and views of the others' (:class:`_Rows`)."""
    held = [(shard, weight_shard)] * p  # held[owner] = (orbitals, weights)
    if pattern == "bcast":
        for root in range(p):
            block = yield Collective("bcast", shard if rank == root else None, (root,))
            w = yield Collective("bcast", weight_shard if rank == root else None, (root,))
            held[root] = (block, w)
    else:  # "ring" or "async-ring": DistributedFockExchange refuses any other
        block, w = shard, weight_shard
        for step in range(1, p):
            if pattern == "async-ring":
                block = yield Collective("ring_shift_async", block, ((nbands + 1) / (2.0 * p),))
            else:
                block = yield Collective("ring_shift", block)
            w = yield Collective("ring_shift", w)
            held[(rank - step) % p] = (block, w)
    return _Rows([block for block, _ in held]), np.concatenate([w for _, w in held])


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
    def tile_potentials(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """``pot[a, b] = K * (left_a^* right_b)`` as one ``(nl, nr, ngrid)`` block."""
        nl, nr = left.shape[0], right.shape[0]
        pair = left.conj()[:, None, :] * right[None, :, :]
        return self._pair_potential(pair.reshape(nl * nr, -1)).reshape(nl, nr, -1)

    def _hermitian_tile_partial(self, rows: np.ndarray, weighted: np.ndarray) -> np.ndarray:
        """``P[I->I]_b = Σ_a w_a pot_ab`` of a tile with itself.

        Only the pairs ``a <= b`` are transformed, row ``a``'s pairs into
        consecutive rows of one batch, and ``pot_ba`` is read as
        ``conj(pot_ab)``.  Each target sums its sources in ascending
        ``a``: row ``a`` adds ``w_a pot_ab`` to every ``b >= a``, then
        ``Σ_{b > a} w_b conj(pot_ab)`` to ``a``.
        """
        n = rows.shape[0]
        starts = np.cumsum([0, *range(n, 0, -1)])
        pair = np.empty((starts[-1], rows.shape[1]), dtype=complex)
        conj = rows.conj()
        for a in range(n):
            np.multiply(conj[a], rows[a:], out=pair[starts[a] : starts[a + 1]])
        pot = self._pair_potential(pair)
        out = np.zeros_like(rows)
        for a in range(n):
            u = pot[starts[a] : starts[a + 1]]
            out[a:] += weighted[a] * u
            if len(u) > 1:  # pairs (a, b > a): pot_ba = conj(pot_ab)
                out[a] += (weighted[a + 1 :] * u[1:].conj()).sum(axis=0)
        return out

    def tile_pair_partials(
        self, phi: np.ndarray, weights: np.ndarray, tile_i: slice, tile_j: slice
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Both partial sums of the unordered tile pair ``{I <= J}`` of ``phi``.

        ``weights`` are the occupations ``d``; each tile's sources are
        scaled here, ``d[t, None] * phi[t]``.  Returns ``(P[I->J],
        P[J->I])`` from one set of transforms; the second is ``None`` on
        the diagonal ``I == J``.  Each is one broadcast product summed
        over its source band axis.  The result depends on nothing but
        the two tiles — whoever computes it gets these bits.
        """
        weighted_i = weights[tile_i, None] * phi[tile_i]
        if tile_i == tile_j:
            return self._hermitian_tile_partial(phi[tile_i], weighted_i), None
        pot = self.tile_potentials(phi[tile_i], phi[tile_j])
        forward = (weighted_i[:, None] * pot).sum(axis=0)
        # Σ_b w_b conj(pot_ab) = conj(Σ_b conj(w_b) pot_ab): no conj(pot) temporary
        conj_j = np.conjugate(weights[tile_j, None] * phi[tile_j])
        backward = (conj_j[None] * pot).sum(axis=1)
        return forward, np.conjugate(backward, out=backward)

    # -- pure-state / diagonalized form (Eq. (13)) -----------------------------
    @traced("hamiltonian.fock.apply_diag")
    def apply_diag(self, phi_src: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """``(V_x phi_j)(r) = -Σ_i d_i phi_i(r) [K * (phi_i^* phi_j)](r)`` on the sources.

        ``phi_src``: source orbitals (rows), ``weights``: their occupation
        weights ``d_i`` in [0, 1].  The operator acts on its own sources:
        every unordered orbital pair is transformed once (N(N+1)/2 FFT
        pairs), ``batch_size`` pair densities per batched transform.
        The one-rank run of :meth:`self_application`.
        """
        weights = np.asarray(weights, dtype=float)
        require(weights.shape == (phi_src.shape[0],), "one weight per source orbital")
        program = self.self_application(phi_src, weights, phi_src.shape[0])
        # the only rank: each reply is its own part, no communicator, no ledger
        return lockstep([program], lambda op, args, parts: parts)[0]

    def self_application(
        self,
        shard: np.ndarray,
        weight_shard: np.ndarray,
        nbands: int,
        rank: int = 0,
        nranks: int = 1,
        pattern: str = "bcast",
    ) -> RankProgram:
        """Rank ``rank`` of ``nranks``'s part of :meth:`apply_diag`, from its
        band shard of the ``nbands`` sources; it owns a balanced block of
        whole tiles.  It collects every shard through ``pattern`` (bitwise
        the serial sources), evaluates tile pair ``k`` if ``k ≡ rank (mod
        nranks)``, returns each *wave*'s partials — the pairs ``(I, J >=
        I)`` of one lower tile, at most ``2N`` rows — unreduced to their
        tile owners in one ``alltoallv_blocks``, adds what it receives in
        ascending source tile, the serial order, and returns ``V_x`` of
        all sources, gathered by ``allgatherv``.  A partial for its own
        tile is added as soon as it is computed unless an earlier one for
        that tile is still in flight, so the one-rank run holds no wave.
        The schedule — which tile pairs, dealt to which rank, in which
        waves — depends on ``nbands`` and ``batch_size`` only, not on the
        weights, so every rank derives it alike.
        Its working set: :func:`_sources`' rows, its tiles' sums, one wave, one tile pair."""
        p = nranks
        phi, weights = yield from _sources(shard, weight_shard, nbands, rank, p, pattern)
        tiles = band_tiles(nbands, self.batch_size)
        # the balanced block partition DistributedFockExchange.apply_diag
        # shards bands with (physics imports no repro.parallel)
        owned = np.array_split(np.arange(len(tiles)), p)
        owner = np.repeat(np.arange(p), [len(o) for o in owned])
        mine = [tiles[t] for t in owned[rank]]
        lo = mine[0].start if mine else 0
        acc = np.zeros(((mine[-1].stop if mine else 0) - lo, shard.shape[1]), dtype=shard.dtype)
        pairs = enumerate(symmetric_tile_pairs(tiles))
        for _, wave in groupby(pairs, key=lambda item: item[1][0]):
            outbox: List[List[np.ndarray]] = [[] for _ in range(p)]
            late: List[Tuple[int, int]] = []  # (sender, tile) to add after the exchange
            for k, (i, j) in wave:
                sender, partials = k % p, (None, None)
                if sender == rank:
                    partials = self.tile_pair_partials(phi, weights, tiles[i], tiles[j])
                for t, partial in zip((j,) if i == j else (j, i), partials):
                    if owner[t] == rank and sender == rank and all(t != q for _, q in late):
                        # its own, with nothing before it in the serial order in flight
                        acc[tiles[t].start - lo : tiles[t].stop - lo] += partial
                        continue
                    if owner[t] == rank:
                        late.append((sender, t))
                    if sender == rank:
                        outbox[owner[t]].append(partial)
            inbox = yield Collective("alltoallv_blocks", outbox)
            del outbox  # peak memory: each partial is freed once added
            for sender, t in late:
                acc[tiles[t].start - lo : tiles[t].stop - lo] += inbox[sender].pop(0)
        return (yield Collective("allgatherv", np.negative(acc, out=acc)))

    # -- energy -----------------------------------------------------------------
    @traced("hamiltonian.fock.exchange_energy")
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
