"""The simulated communicator: shared replies, modeled time.

``SimComm`` owns ``nranks`` logical ranks; collective arguments are lists
with one numpy array per rank.  Each reply is a *read-only view* of the
one buffer holding its data (the sender's, or the one sum or gather),
shared as ranks on one node share memory: results are exact, no rank
holds a copy, and writing into a reply raises.  Every message is still
charged into the process's tally with the machine model's time
(:func:`~repro.parallel.ledger.charge`).
:meth:`SimComm.run` drives a rank program (one generator per rank, such as
:meth:`~repro.hamiltonian.fock.FockExchangeOperator.self_application`)
over them in lockstep.

Timing convention: ranks run in lockstep, so for an operation performed
concurrently by all ranks we charge the *per-rank critical-path* time
once (not summed over ranks) — matching how the paper reports per-rank
MPI time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Literal, Optional, Sequence, Tuple

import numpy as np

from repro.parallel.ledger import charge
from repro.parallel.machine import MachineSpec
from repro.trace import traced
from repro.utils.validation import require

if TYPE_CHECKING:  # config validation imports this module without the physics
    from repro.hamiltonian.fock import RankProgram

Pattern = Literal["bcast", "ring", "async-ring"]

#: the orbital-exchange schedules :class:`~repro.parallel.distfock.DistributedFockExchange`
#: runs over this communicator; named here so that config validation
#: reads them without importing the exchange operator
PATTERNS: Tuple[str, ...] = ("bcast", "ring", "async-ring")


class SimComm:
    """A deterministic stand-in for an MPI communicator."""

    def __init__(self, nranks: int, machine: MachineSpec) -> None:
        require(nranks >= 1, "need at least one rank")
        self.nranks = nranks
        self.machine = machine

    # -- helpers ---------------------------------------------------------------
    def _check(self, per_rank: Sequence[np.ndarray]) -> None:
        require(len(per_rank) == self.nranks, f"expected {self.nranks} rank buffers, got {len(per_rank)}")

    @staticmethod
    def _nbytes(a: np.ndarray | List[np.ndarray]) -> float:
        return float(sum(x.nbytes for x in a) if isinstance(a, list) else np.asarray(a).nbytes)

    @staticmethod
    def _shared(a: np.ndarray | List[np.ndarray]) -> np.ndarray | List[np.ndarray]:
        """Every reply: a read-only view of ``a`` (of each array of a list)."""
        if isinstance(a, list):
            return [SimComm._shared(x) for x in a]
        return np.lib.stride_tricks.as_strided(a, writeable=False)

    # -- collectives --------------------------------------------------------------
    @traced("parallel.comm")
    def bcast(self, per_rank: List[Optional[np.ndarray]], root: int) -> List[np.ndarray]:
        """Broadcast rank ``root``'s buffer to every rank."""
        self._check(per_rank)
        buf = np.asarray(per_rank[root])
        t = self.machine.bcast_time(self._nbytes(buf), self.nranks)
        charge("bcast", self._nbytes(buf), t)
        return [self._shared(buf)] * self.nranks

    @traced("parallel.comm")
    def ring_shift(self, per_rank: Sequence[np.ndarray]) -> List[np.ndarray]:
        """One synchronous ring rotation (MPI_Sendrecv with both neighbors).

        Rank r receives the buffer of rank ``r - 1``; each rank
        sends/receives one neighbor message, so the charged time is one
        single-hop point-to-point transfer of the largest buffer.
        """
        return self._rotate(per_rank, "sendrecv", 0.0)

    @traced("parallel.comm")
    def ring_shift_async(
        self, per_rank: Sequence[np.ndarray], compute_seconds: float
    ) -> List[np.ndarray]:
        """Asynchronous ring rotation overlapped with ``compute_seconds``.

        Models paper Sec. IV-B2: the transfer proceeds while the rank
        computes on the block it already holds; only the *excess* of
        communication over computation is charged, as MPI_Wait time.
        """
        return self._rotate(per_rank, "wait", compute_seconds)

    def _rotate(self, per_rank: Sequence[np.ndarray], kind: str, hidden: float) -> List[np.ndarray]:
        self._check(per_rank)
        if self.nranks > 1:
            max_bytes = max(self._nbytes(b) for b in per_rank)
            t_comm = self.machine.p2p_time(max_bytes, self.nranks, neighbor=True)
            charge(kind, max_bytes, max(0.0, t_comm - hidden))
        return [self._shared(per_rank[r - 1]) for r in range(self.nranks)]

    @traced("parallel.comm")
    def allreduce_sum(self, per_rank: Sequence[np.ndarray], participants: Optional[int] = None) -> List[np.ndarray]:
        """Sum identical-shaped buffers across ranks (result on every rank).

        ``participants`` < nranks models the SHM optimization where only
        one rank per node joins the reduction (Sec. IV-B3).
        """
        self._check(per_rank)
        total = np.sum([np.asarray(b) for b in per_rank], axis=0)
        p = self.nranks if participants is None else participants
        t = self.machine.allreduce_time(self._nbytes(per_rank[0]), p)
        charge("allreduce", self._nbytes(per_rank[0]), t)
        return [self._shared(total)] * self.nranks

    @traced("parallel.comm")
    def allgatherv(self, per_rank: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Concatenate every rank's buffer on all ranks (axis 0)."""
        self._check(per_rank)
        gathered = np.concatenate([np.asarray(b) for b in per_rank], axis=0)
        total_bytes = sum(self._nbytes(b) for b in per_rank)
        t = self.machine.allgatherv_time(total_bytes, self.nranks)
        charge("allgatherv", total_bytes, t)
        return [self._shared(gathered)] * self.nranks

    # -- accounting-only charges ------------------------------------------------
    # The distributed algorithms in this package leave some exchanges
    # implicit: N x N matrices (sigma, overlap blocks) are replicated and
    # assembled by serial numpy, and gathered results feed serial
    # consumers.  These helpers charge the modeled time such an exchange
    # would cost on the machine — data movement already happened through
    # the replicated arrays, so only the tally is touched.

    @traced("parallel.comm")
    def charge_allreduce(self, nbytes: float, participants: Optional[int] = None) -> float:
        """Charge one allreduce of ``nbytes``; returns the modeled seconds.

        ``participants`` < nranks models the SHM optimization (one rank
        per node joins the reduction, Sec. IV-B3).
        """
        p = self.nranks if participants is None else max(int(participants), 1)
        t = self.machine.allreduce_time(float(nbytes), p)
        charge("allreduce", float(nbytes), t)
        return t

    @traced("parallel.comm")
    def charge_allgatherv(self, nbytes_total: float) -> float:
        """Charge one allgatherv of ``nbytes_total`` distributed bytes."""
        t = self.machine.allgatherv_time(float(nbytes_total), self.nranks)
        charge("allgatherv", float(nbytes_total), t)
        return t

    @traced("parallel.comm")
    def alltoallv_blocks(self, blocks: Sequence[Sequence[np.ndarray]]) -> List[List[np.ndarray]]:
        """Full exchange: ``blocks[r][s]`` goes from rank r to rank s.

        Returns ``out[s][r] = blocks[r][s]`` — how the exchange returns
        tile-pair partials to the ranks that own their tiles.  A block is
        an array, or a list of arrays sent as one message.
        """
        self._check(blocks)
        for row in blocks:
            require(len(row) == self.nranks, "alltoallv needs nranks blocks per rank")
        send_bytes = max(
            sum(self._nbytes(b) for s, b in enumerate(row) if s != r)
            for r, row in enumerate(blocks)
        )
        t = self.machine.alltoallv_time(send_bytes, self.nranks)
        charge("alltoallv", send_bytes, t)
        return [[self._shared(blocks[r][s]) for r in range(self.nranks)] for s in range(self.nranks)]

    # -- the lockstep driver ----------------------------------------------------
    def run(self, programs: Sequence[RankProgram]) -> List[Any]:
        """Run one rank program per rank under
        :func:`~repro.hamiltonian.fock.lockstep`, each round's requests
        answered by one call of their list-form collective: mismatched
        requests and a failing rank raise before their round is charged.
        Returns the results."""
        from repro.hamiltonian.fock import lockstep

        require(len(programs) == self.nranks, f"expected {self.nranks} rank programs")
        return lockstep(programs, self._collective)

    def _collective(self, op: str, args: Tuple, data: List[Any]) -> List[Any]:
        """One round's collective, called once: each rank's reply.  The
        ops are those the rank programs of :mod:`repro.hamiltonian.fock`
        ask for, each this class's list-form method of that name."""
        if op == "ring_shift_async":
            # the hop hides behind the pair solves (two transforms each) on
            # the largest block in hand, priced as the analytic model does
            m, n_pairs = self.machine, max(b.shape[0] for b in data) * args[0]
            hidden = m.overlap_efficiency * 2.0 * n_pairs * m.fft_box_time(data[0].shape[-1])
            return self.ring_shift_async(data, hidden)
        return getattr(self, op)(data, *args)

