"""Map operation counts to per-step wall time on a machine model.

``StepTimeModel`` combines :mod:`repro.perf.counts` with a
:class:`~repro.parallel.machine.MachineSpec` into the Table-I-shaped
communication breakdown plus compute phases — the engine behind the
Fig. 9/10/11 generators in :mod:`repro.perf.experiments`.

The FFT term is bandwidth-bound (both platforms are, Sec. VIII-B/C):
``MachineSpec.fft_box_time`` per transform, whose sustained bandwidth
ramps with box size, slowed further when too few bands per rank are
left to batch.

``MemoryModel`` is the per-rank footprint beside it, the paper's
weak-scaling memory limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.parallel.machine import MachineSpec
from repro.perf.counts import CPLX, StepCounts, SystemSize, variant_counts


@dataclass
class StepTimeBreakdown:
    """Per-phase seconds of one propagation step (per-rank critical path)."""

    fft: float
    gemm: float
    stream: float
    eigh: float
    bcast: float
    sendrecv: float
    wait: float
    allreduce: float
    alltoallv: float
    allgatherv: float

    @property
    def compute(self) -> float:
        return self.fft + self.gemm + self.stream + self.eigh

    @property
    def communication(self) -> float:
        return (
            self.bcast
            + self.sendrecv
            + self.wait
            + self.allreduce
            + self.alltoallv
            + self.allgatherv
        )

    @property
    def total(self) -> float:
        return self.compute + self.communication

    @property
    def communication_ratio(self) -> float:
        t = self.total
        return self.communication / t if t > 0 else 0.0

    def table_row(self) -> Dict[str, float]:
        """Paper Table I columns (seconds)."""
        return {
            "alltoallv": self.alltoallv,
            "sendrecv": self.sendrecv,
            "wait": self.wait,
            "allgatherv": self.allgatherv,
            "allreduce": self.allreduce,
            "bcast": self.bcast,
            "total_comm": self.communication,
            "comm_ratio": self.communication_ratio,
        }


class StepTimeModel:
    """Per-step wall-time projector for one machine."""

    def __init__(self, machine: MachineSpec) -> None:
        self.machine = machine

    # -- kernels ------------------------------------------------------------
    def fft_seconds(self, transforms: float, ngrid: int, bands_per_rank: float = 16.0) -> float:
        """Bandwidth-bound FFT cost (see MachineSpec.fft_box_time).

        ``bands_per_rank`` sets the multi-batch depth available: the
        paper's batch-16 strategy saturates bandwidth, but when strong
        scaling leaves ~1 band per rank the batches collapse and the
        sustained rate drops (the measured 40 % / 26 % compute-efficiency
        loss, Sec. VIII-B).
        """
        if transforms <= 0:
            return 0.0
        batch_ramp = min(1.0, 0.3 + 0.7 * bands_per_rank / 16.0)
        return transforms * self.machine.fft_box_time(ngrid) / batch_ramp

    # -- full step ------------------------------------------------------------
    def breakdown(self, size: SystemSize, nranks: int, variant: str) -> StepTimeBreakdown:
        c = variant_counts(size, nranks, variant, bl_sigma_fill=self.machine.bl_sigma_fill)
        return self.breakdown_from_counts(c, size, nranks)

    def breakdown_from_counts(
        self, c: StepCounts, size: SystemSize, nranks: int
    ) -> StepTimeBreakdown:
        m = self.machine
        ng = size.ngrid
        p = nranks

        bands_per_rank = size.nbands / p
        t_fft = self.fft_seconds(c.fft_transforms, ng, bands_per_rank)
        # characteristic GEMM: one N x (N/P) x Ng block multiply
        char = 8.0 * size.nbands * size.nbands * ng / p
        t_gemm = m.gemm_time(c.gemm_flops, char_flops=char)
        t_stream = m.stream_time(c.stream_bytes)
        # dense eigensolves are distributed (ScaLAPACK/ELPA-style) up to a
        # scalability cap, at a reduced sustained fraction
        eigh_par = min(p, m.eigh_ranks_cap)
        t_eigh = c.eigh_flops / (m.flops_per_rank * 0.1 * eigh_par)
        # fixed per-iteration overhead (kernel launches, host serial work)
        t_eigh += c.iterations * m.per_iteration_overhead

        # communication: bandwidth terms from aggregate volume, latency
        # terms from message counts
        t_bcast = 0.0
        if c.bcast_messages > 0:
            per_msg = c.bcast_bytes / c.bcast_messages
            t_bcast = c.bcast_messages * m.bcast_time(per_msg, p)

        t_sendrecv = 0.0
        if c.sendrecv_messages > 0:
            per_msg = c.sendrecv_bytes / c.sendrecv_messages
            t_sendrecv = c.sendrecv_messages * m.p2p_time(per_msg, p, neighbor=True)

        t_wait = 0.0
        if c.async_steps > 0 and p > 1:
            # async ring: each posted transfer is hidden behind the FFT
            # work on the block already in hand; only the excess waits
            t_step_comm = m.p2p_time(c.async_block_bytes, p, neighbor=True)
            t_step_comp = m.overlap_efficiency * self.fft_seconds(
                c.async_overlap_fft, ng, bands_per_rank
            )
            t_wait = c.async_steps * max(0.0, t_step_comm - t_step_comp)

        participants = p
        if c.shared_memory:
            participants = max(p // m.ranks_per_node, 1)
        t_allreduce = 0.0
        if c.allreduce_messages > 0:
            per_msg = c.allreduce_bytes / c.allreduce_messages
            t_allreduce = c.allreduce_messages * m.allreduce_time(per_msg, participants)

        t_alltoallv = 0.0
        if c.alltoallv_messages > 0:
            per_msg = c.alltoallv_bytes / c.alltoallv_messages
            t_alltoallv = c.alltoallv_messages * m.alltoallv_time(per_msg, p)

        t_allgatherv = 0.0
        if c.allgatherv_messages > 0:
            per_msg = c.allgatherv_bytes / c.allgatherv_messages
            t_allgatherv = c.allgatherv_messages * m.allgatherv_time(per_msg, p)

        return StepTimeBreakdown(
            fft=t_fft,
            gemm=t_gemm,
            stream=t_stream,
            eigh=t_eigh,
            bcast=t_bcast,
            sendrecv=t_sendrecv,
            wait=t_wait,
            allreduce=t_allreduce,
            alltoallv=t_alltoallv,
            allgatherv=t_allgatherv,
        )

    def step_seconds(self, size: SystemSize, nranks: int, variant: str) -> float:
        return self.breakdown(size, nranks, variant).total


@dataclass(frozen=True)
class MemoryModel:
    """Per-rank memory footprint of one PT-IM(-ACE) propagation state.

    Mirrors the paper's inventory behind its weak-scaling memory limits
    (Sec. VIII-C): scalable wavefunction storage (the band shard plus
    Anderson history, ~20 copies) and non-scalable N x N matrices (sigma
    and the overlap blocks), optionally kept once per node in shared
    memory (Sec. IV-B3).
    """

    nbands: int
    ngrid: int
    anderson_history: int = 20
    n_square_matrices: int = 4  # sigma, S, Phi*HPhi, scratch

    def wavefunction_bytes_per_rank(self, nranks: int) -> float:
        shard = self.nbands * self.ngrid * CPLX / nranks
        return shard * (2.0 + self.anderson_history)

    def square_matrix_bytes(self) -> float:
        return self.n_square_matrices * self.nbands * self.nbands * CPLX

    def per_rank_bytes(self, nranks: int, machine: MachineSpec, shared_memory: bool) -> float:
        wf = self.wavefunction_bytes_per_rank(nranks)
        sq = self.square_matrix_bytes()
        if shared_memory:
            sq /= min(machine.ranks_per_node, nranks)
        return wf + sq

    def fits(self, nranks: int, machine: MachineSpec, shared_memory: bool, headroom: float = 0.8) -> bool:
        """Does the state fit in ``headroom`` x per-rank memory?"""
        return self.per_rank_bytes(nranks, machine, shared_memory) <= headroom * machine.mem_per_rank
