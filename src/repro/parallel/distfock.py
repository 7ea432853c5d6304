"""Distributed Fock-exchange evaluation (paper Alg. 2 + Fig. 5).

Sources are band-sharded across simulated ranks.  Every rank
must see every source orbital once; the three communication schedules of
Fig. 5 are implemented *for real* on the shards:

``bcast``
    each source block is broadcast from its owner (Fig. 5(a));
``ring``
    source blocks rotate around the ring, one neighbor hop per step
    (Fig. 5(b));
``async-ring``
    as ``ring``, but each transfer is overlapped with the pair-density
    FFT work on the block already in hand; only the excess communication
    time is charged as MPI_Wait (Fig. 5(c)).

All three produce *bit-identical* results — to each other, at every rank
count, and to the serial
:class:`~repro.hamiltonian.fock.FockExchangeOperator`; they differ only
in what the ledger records, which is the entire point of Sec. IV-B.
That exactness holds by construction, not by luck of the shard sizes:

* the unit of work is the serial operator's **tile pair** (see
  :mod:`repro.hamiltonian.fock`): tiles are cut from the band index and
  ``batch_size`` alone, never from the rank count, and the partial sums
  ``P[I->J]`` a tile pair yields depend only on the two tiles.  The
  operator acts on its own sources, and each unordered pair ``{I <= J}``
  is evaluated by exactly one rank — pair ``k`` of the serial enumeration
  by rank ``k mod p``, which balances the transforms even where ranks
  outnumber tiles — from the sources every rank has received through the
  schedule (reassembled from the communicated copies, in band order);
* ranks own whole tiles.  A partial destined for another rank's tile
  really travels, *unreduced*, in a charged ``alltoallv``, and the
  owner adds what it holds in ascending source tile — the serial
  operator's own order, fixed by band indices alone — so the gathered
  rows are bitwise the serial rows.  Reducing before sending would move
  fewer bytes and make the sum depend on who computed what.  The pairs
  go in *waves*, one per lower tile ``I`` (all ``(I, J >= I)``), each
  closed by its own exchange and addition: a wave holds at most ``2N``
  partial rows, where a single exchange at the end would hold ``N``
  times the tile count (six orbital blocks at N = 24);
* every rank computes on this operator and its grid, so the one
  :class:`~repro.backend.Backend` tally counts each transform once and
  equals the serial count; rank ``r``'s share,
  ``rank_transforms[r]``, is that tally's advance across the work
  rank ``r`` was dealt.

The class is a :class:`~repro.hamiltonian.fock.FockExchangeOperator`
that changes only *where* ``apply_diag`` runs and what ``exchange_energy``
charges, so :class:`~repro.hamiltonian.hamiltonian.Hamiltonian` runs it
behind every SCF loop and RT propagator.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.grid.fftgrid import PlaneWaveGrid
from repro.hamiltonian.fock import FockExchangeOperator, band_tiles, symmetric_tile_pairs
from repro.parallel.comm import PATTERNS, Pattern, SimComm
from repro.parallel.layouts import BandLayout, partition_sizes
from repro.utils.validation import require

COMPLEX_BYTES = 16.0


class DistributedFockExchange(FockExchangeOperator):
    """Band-parallel screened-exchange executor over a :class:`SimComm`.

    Parameters
    ----------
    grid:
        The plane-wave grid; every rank's FFTs run on it, so its backend
        counts each transform once.
    kernel_g:
        Flat G-space interaction kernel (as for the serial operator).
    comm:
        Simulated communicator carrying the machine model and ledger.
    pattern:
        Default communication schedule (``apply*`` calls may override).
    batch_size:
        Pair-density FFT batch size; the tiles are cut from it and the
        band count alone, never from the rank count.
    use_shm:
        Model node-shared N x N matrices (Sec. IV-B3): replicated-matrix
        allreduces are charged with one participant per *node* instead
        of one per rank.
    """

    def __init__(
        self,
        grid: PlaneWaveGrid,
        kernel_g: np.ndarray,
        comm: SimComm,
        pattern: Pattern = "ring",
        batch_size: int = 16,
        use_shm: bool = False,
    ) -> None:
        require(pattern in PATTERNS, f"unknown pattern {pattern!r}; use one of {PATTERNS}")
        super().__init__(grid, kernel_g, batch_size)
        self.comm = comm
        self.pattern = pattern
        self.use_shm = bool(use_shm)
        #: per rank, the 3-D transforms of the exchange work it was dealt
        self.rank_transforms: List[int] = [0] * comm.nranks

    # -- bookkeeping -----------------------------------------------------------
    def _as_rank(self, r: int, work: Callable, *args):
        """``work(*args)`` run as rank ``r``: the backend tally's advance
        across the call is added to ``rank_transforms[r]``."""
        counters = self.grid.backend.counters
        before = counters.transforms
        out = work(*args)
        self.rank_transforms[r] += counters.transforms - before
        return out

    def _block_compute_seconds(self, n_pairs: float) -> float:
        """Transfer-hiding FFT time of ``n_pairs`` pair-density solves (two
        transforms each): the per-transform price and overlap fraction the
        analytic model charges its async-ring wait with."""
        machine = self.comm.machine
        return machine.overlap_efficiency * 2.0 * n_pairs * machine.fft_box_time(self.grid.ngrid)

    # -- schedules ------------------------------------------------------------
    def _collect_sources(
        self,
        arrays: Sequence[np.ndarray],
        pattern: Pattern,
        pairs_per_source: float,
    ) -> List[List[np.ndarray]]:
        """Move every source shard to every rank via ``pattern``.

        ``arrays`` are band-leading serial arrays sharded identically
        (orbitals + weights travel together).  Returns, per rank, each
        array reassembled *from the communicated copies* in band order —
        bitwise the serial input, but having genuinely ridden the
        schedule (and charged the ledger for it).  ``pairs_per_source``
        is the number of pair-density solves a rank performs per source
        orbital in hand — what an ``async-ring`` transfer can hide behind.
        """
        p = self.comm.nranks
        nbands = arrays[0].shape[0]
        layout = BandLayout(nbands, self.grid.ngrid, p)
        shard_sets = [layout.shard(np.asarray(a)) for a in arrays]
        # collected[array][rank][owner] = that owner's block as seen by rank
        collected: List[List[List[Optional[np.ndarray]]]] = [
            [[None] * p for _ in range(p)] for _ in arrays
        ]

        if pattern == "bcast":
            for root in range(p):
                for a, shards in enumerate(shard_sets):
                    blocks = self.comm.bcast(shards, root)
                    for r in range(p):
                        collected[a][r][root] = blocks[r]
        elif pattern in ("ring", "async-ring"):
            current = [[s.copy() for s in shards] for shards in shard_sets]
            for step in range(p):
                for a in range(len(arrays)):
                    for r in range(p):
                        collected[a][r][(r - step) % p] = current[a][r]
                if step == p - 1:
                    break
                if pattern == "async-ring":
                    # post the orbital transfer, then compute on the block
                    # in hand; the tiny weight vectors ride synchronous
                    # sendrecvs alongside
                    comp = self._block_compute_seconds(
                        max(b.shape[0] for b in current[0]) * pairs_per_source
                    )
                    moved = [self.comm.ring_shift_async(current[0], comp)]
                    moved.extend(self.comm.ring_shift(cur) for cur in current[1:])
                else:
                    moved = [self.comm.ring_shift(cur) for cur in current]
                current = moved
        else:
            raise ValueError(f"unknown pattern {pattern!r}; use one of {PATTERNS}")

        return [
            [np.concatenate(collected[a][r], axis=0) for a in range(len(arrays))]
            for r in range(p)
        ]

    # -- pure-state / diagonalized form (Eq. (13)) -----------------------------
    def apply_diag(
        self,
        phi_src: np.ndarray,
        weights: np.ndarray,
        *,
        pattern: Optional[Pattern] = None,
    ) -> np.ndarray:
        """Band-parallel ``V_x`` on its own sources — serial-bitwise,
        schedule-charged.

        ``phi_src``: (N, ngrid) diagonal-weight sources (post sigma
        diagonalization), which reach every rank via the configured
        pattern.  The unordered tile pairs are dealt round-robin, partials
        return to the tile owners in one ``alltoallv`` per wave and are
        added in the serial order.
        """
        weights = np.asarray(weights, dtype=float)
        require(weights.shape == (phi_src.shape[0],), "one weight per source")
        pattern = self.pattern if pattern is None else pattern
        p = self.comm.nranks
        n = phi_src.shape[0]
        per_rank = self._collect_sources([phi_src, weights], pattern, (n + 1) / (2.0 * p))
        weighted = [w[:, None] * src for src, w in per_rank]
        tiles = band_tiles(n, self.batch_size)
        owner = np.repeat(np.arange(p), partition_sizes(len(tiles), p))
        empty = np.empty((0, self.grid.ngrid), dtype=complex)
        acc = np.zeros_like(phi_src)
        # one wave per lower tile i: its pairs (i, j >= i) are computed,
        # their partials returned, and every owner adds what arrived in
        # the order the serial loop adds it — ascending source tile for
        # each of its tiles — before the next wave starts, so no rank
        # ever holds more than one wave of partials
        pairs = enumerate(symmetric_tile_pairs(tiles, weights))
        for i, wave in groupby(pairs, key=lambda item: item[1][0]):
            # sent[r][s]: the partials rank r computed for tiles rank s owns
            sent: List[List[List[np.ndarray]]] = [[[] for _ in range(p)] for _ in range(p)]
            order: List[Tuple[int, int]] = []  # (sender, target tile) as the serial loop adds
            for k, (_, j, keep) in wave:
                r = k % p
                partials = self._as_rank(
                    r, self.tile_pair_partials, per_rank[r][0], weighted[r], tiles[i], tiles[j], keep
                )
                for t, partial in zip((j, i), partials):
                    if partial is not None:
                        sent[r][owner[t]].append(partial)
                        order.append((r, t))
            blocks = [[np.concatenate(b, axis=0) if b else empty for b in row] for row in sent]
            del sent  # peak memory: one copy of the wave alive at a time
            received = self.comm.alltoallv_blocks(blocks)
            del blocks
            taken = np.zeros((p, p), dtype=int)  # rows read so far from received[s][r]
            for r, t in order:
                s, rows = owner[t], tiles[t].stop - tiles[t].start
                acc[tiles[t]] += received[s][r][taken[s, r] : taken[s, r] + rows]
                taken[s, r] += rows
        self.comm.charge_allgatherv(float(acc.nbytes))
        return np.negative(acc, out=acc)

    # -- energy -----------------------------------------------------------------
    def exchange_energy(
        self,
        phi: np.ndarray,
        d: np.ndarray,
        degeneracy: float = 1.0,
        vx_phi: Optional[np.ndarray] = None,
    ) -> float:
        """The serial energy, charged as the distributed one is assembled:
        two replicated N x N matrices, sigma (for its eigendecomposition)
        and the overlap block, each one allreduce — joined by one rank
        per node under ``use_shm`` (Sec. IV-B3)."""
        comm, nbytes = self.comm, phi.shape[0] ** 2 * COMPLEX_BYTES
        joined = comm.machine.nodes(comm.nranks) if self.use_shm else comm.nranks
        for _ in ("sigma", "overlap"):
            comm.charge_allreduce(nbytes, participants=joined)
        return super().exchange_energy(phi, d, degeneracy, vx_phi)
