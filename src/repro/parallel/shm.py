"""Node-level shared memory for non-scalable matrices (paper Sec. IV-B3).

Square N x N objects (sigma, Phi*Phi, Phi*H Phi) are identical on every
rank; with MPI-3 shared-memory windows, ranks on one node keep a single
copy, cutting both the footprint and the allreduce participant count by
the ranks-per-node factor.  :class:`MemoryModel` is the per-rank
footprint calculator behind the paper's weak-scaling memory limits
(Sec. VIII-C); the participant count is charged by
:meth:`~repro.parallel.comm.SimComm.allreduce_sum`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.parallel.machine import MachineSpec

COMPLEX_BYTES = 16.0


@dataclass(frozen=True)
class MemoryModel:
    """Per-rank memory footprint of one PT-IM(-ACE) propagation state.

    Mirrors the paper's inventory: scalable wavefunction storage (the
    band shard plus Anderson history, ~20 copies) and non-scalable N x N
    matrices (sigma and the overlap blocks), optionally shared per node.
    """

    nbands: int
    ngrid: int
    anderson_history: int = 20
    n_square_matrices: int = 4  # sigma, S, Phi*HPhi, scratch

    def wavefunction_bytes_per_rank(self, nranks: int) -> float:
        shard = self.nbands * self.ngrid * COMPLEX_BYTES / nranks
        return shard * (2.0 + self.anderson_history)

    def square_matrix_bytes(self) -> float:
        return self.n_square_matrices * self.nbands * self.nbands * COMPLEX_BYTES

    def per_rank_bytes(self, nranks: int, machine: MachineSpec, shared_memory: bool) -> float:
        wf = self.wavefunction_bytes_per_rank(nranks)
        sq = self.square_matrix_bytes()
        if shared_memory:
            sq /= min(machine.ranks_per_node, nranks)
        return wf + sq

    def fits(self, nranks: int, machine: MachineSpec, shared_memory: bool, headroom: float = 0.8) -> bool:
        """Does the state fit in ``headroom`` x per-rank memory?"""
        return self.per_rank_bytes(nranks, machine, shared_memory) <= headroom * machine.mem_per_rank
