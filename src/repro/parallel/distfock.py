"""Distributed Fock-exchange evaluation (paper Alg. 2 + Fig. 5).

Sources are band-sharded across simulated ranks, and each rank runs the
one self-application program,
:meth:`~repro.hamiltonian.fock.FockExchangeOperator.self_application`,
under :meth:`~repro.parallel.comm.SimComm.run`, which shares (never
copies) its data and charges its collectives.  Every rank must see every
source orbital once; the three schedules of Fig. 5 run on the shards:

``bcast``
    each source block is broadcast from its owner (Fig. 5(a));
``ring``
    source blocks rotate around the ring, one neighbor hop per step
    (Fig. 5(b));
``async-ring``
    as ``ring``, but each transfer is overlapped with the pair-density
    FFT work on the block already in hand; only the excess communication
    time is charged as MPI_Wait (Fig. 5(c)).

The serial ``apply_diag`` is the same program's one-rank run, so all
three are *bit-identical* to it at every rank count, by construction:
tiles and the order partials are added in depend on band indices alone,
never on the rank count.  The schedules differ only in what the ledger
records, which is the entire point of Sec. IV-B.  Every rank computes on
this operator's grid, so the tally counts each transform once, and
:func:`~repro.hamiltonian.fock.lockstep` counts each rank's share.

The class is a :class:`~repro.hamiltonian.fock.FockExchangeOperator`
that changes only *where* ``apply_diag`` runs and what ``exchange_energy``
charges, so :class:`~repro.hamiltonian.hamiltonian.Hamiltonian` runs it
behind every SCF loop and RT propagator.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.grid.fftgrid import PlaneWaveGrid
from repro.hamiltonian.fock import FockExchangeOperator
from repro.parallel.comm import PATTERNS, Pattern, SimComm
from repro.trace import traced
from repro.utils.validation import require

COMPLEX_BYTES = 16.0


class DistributedFockExchange(FockExchangeOperator):
    """Band-parallel screened-exchange executor over a :class:`SimComm`.

    Parameters
    ----------
    grid:
        The plane-wave grid; every rank's FFTs run on it, so each
        transform is counted once.
    kernel_g:
        Flat G-space interaction kernel (as for the serial operator).
    comm:
        Simulated communicator carrying the machine model.
    pattern:
        The communication schedule every ``apply_diag`` runs.
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

    # -- pure-state / diagonalized form (Eq. (13)) -----------------------------
    @traced("parallel.distfock.apply_diag")
    def apply_diag(self, phi_src: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Band-parallel ``V_x`` on its own sources, serial-bitwise and
        charged by :attr:`pattern`: each rank runs :meth:`self_application`
        from its band shard of ``(phi_src, weights)`` — the balanced block
        partition, the first ``n % p`` shards one band longer — in lockstep
        under the comm."""
        weights = np.asarray(weights, dtype=float)
        require(weights.shape == (phi_src.shape[0],), "one weight per source")
        p, n = self.comm.nranks, phi_src.shape[0]
        shards = enumerate(zip(np.array_split(phi_src, p), np.array_split(weights, p)))
        programs = [self.self_application(phi, w, n, r, p, self.pattern) for r, (phi, w) in shards]
        return self.comm.run(programs)[0]

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
