"""Hardware cost models for the paper's two platforms (Sec. V).

Fugaku (ARM A64FX):
    one CPU/node, 4 CMGs = 4 MPI ranks/node, 12 compute cores + 8 GB HBM2
    per rank; 3.38 TFLOPS & 1024 GB/s per node; 6-D torus (Tofu-D).
A100 cluster:
    Kunpeng-920 host + 4 A100/node = 4 ranks/node; 9.7 TFLOPS, 1.5 TB/s
    HBM2, 40 GB per GPU; PCIe 64 GB/s bidirectional; fat tree, no
    NVLink/GPUDirect (communication staged through the host).

The numbers below are *per-rank* sustained figures with efficiency
factors chosen in :mod:`repro.perf.calibrate` so the model lands on the
paper's measured anchors (Fig. 9-11, Table I).  All communication-time
primitives used both by the analytic model and by the executing
:class:`~repro.parallel.comm.SimComm` live here, so the two stay
consistent by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Literal

Topology = Literal["torus6d", "fattree"]


@dataclass(frozen=True)
class MachineSpec:
    """Per-rank machine model.

    Attributes
    ----------
    flops_per_rank:
        Theoretical peak FLOP/s of one MPI rank.
    mem_bw_per_rank:
        HBM bandwidth per rank (bytes/s).
    link_bw:
        Sustained point-to-point bandwidth per rank (bytes/s).
    link_latency:
        Per-message latency (s), including software stack.
    bcast_bw_penalty:
        Effective bandwidth *divisor* for broadcast trees relative to
        point-to-point — captures the network congestion the ring method
        avoids (paper Sec. IV-B1).
    flop_efficiency:
        Sustained fraction of peak for GEMM-like kernels.  FFTs are priced
        by bandwidth instead (:meth:`fft_box_time`; Sec. VIII-B "PWDFT is
        bandwidth-bound").
    """

    name: str
    flops_per_rank: float
    mem_bw_per_rank: float
    link_bw: float
    link_latency: float
    topology: Topology
    ranks_per_node: int
    mem_per_rank: float
    bcast_bw_penalty: float = 2.0
    flop_efficiency: float = 0.5
    #: effective memory passes per 3-D FFT (bandwidth-bound model)
    fft_passes: float = 8.0
    #: host-staging bandwidth for network traffic (bytes/s); None = direct
    #: (models the missing GPUDirect on the A100 cluster, Sec. VIII-D)
    stage_bw: float | None = None
    #: effective fraction of sigma entries active in the Alg. 2 triple
    #: loop (mixed-state occupancy fill), calibrated from Fig. 9's
    #: BL -> Diag speedup; multiplies N to give the extra loop factor
    bl_sigma_fill: float = 0.014
    #: parallelism cap for replicated/distributed dense eigensolves
    eigh_ranks_cap: int = 64
    #: fraction of per-step compute usable to hide async transfers
    #: (pipeline startup, kernel-launch gaps, progress-thread limits)
    overlap_efficiency: float = 0.3
    #: GEMM flops at which the sustained flop efficiency saturates; small
    #: per-rank blocks run far below peak (the paper's strong-scaling
    #: "computing efficiency drops to 40 % / 26 %" observation)
    gemm_ramp_flops: float = 2.0e10
    #: fixed seconds per SCF iteration (kernel-launch / host-serial
    #: overhead) — the strong-scaling floor, large on the GPU platform
    per_iteration_overhead: float = 0.0

    # -- derived -----------------------------------------------------------
    @property
    def flop_byte_ratio(self) -> float:
        """Peak-FLOP to peak-bandwidth ratio (paper quotes 3.4 vs 6.5)."""
        return self.flops_per_rank / self.mem_bw_per_rank

    def nodes(self, nranks: int) -> int:
        return (nranks + self.ranks_per_node - 1) // self.ranks_per_node

    # -- communication primitives (seconds) -----------------------------------
    def hop_count(self, nranks: int) -> float:
        """Mean network hop count between two ranks."""
        nodes = max(self.nodes(nranks), 1)
        if self.topology == "torus6d":
            # 6-D torus: diameter grows very slowly; mean distance ~ (6/4) n^(1/6)
            return max(1.0, 1.5 * nodes ** (1.0 / 6.0))
        # fat tree: at most 2 switch levels for the sizes considered
        return 2.0 if nodes > 1 else 1.0

    def _staged(self, nbytes: float) -> float:
        """Extra host-staging time when GPUDirect is unavailable."""
        if self.stage_bw is None:
            return 0.0
        return 2.0 * nbytes / self.stage_bw  # device->host + host->device

    def p2p_time(self, nbytes: float, nranks: int, neighbor: bool = True) -> float:
        """Point-to-point message time.

        ``neighbor=True`` (ring pattern) is a single hop by construction;
        otherwise the mean hop count inflates the latency term.
        """
        hops = 1.0 if neighbor else self.hop_count(nranks)
        return self.link_latency * hops + nbytes / self.link_bw + self._staged(nbytes)

    def bcast_time(self, nbytes: float, nranks: int) -> float:
        """Binomial-tree broadcast with congestion penalty."""
        if nranks <= 1:
            return 0.0
        stages = math.ceil(math.log2(nranks))
        hops = self.hop_count(nranks)
        return (
            stages * self.link_latency * hops
            + self.bcast_bw_penalty * nbytes / self.link_bw
            + self._staged(nbytes)
        )

    def allreduce_time(self, nbytes: float, nranks: int) -> float:
        """Rabenseifner-style reduce-scatter + allgather allreduce."""
        if nranks <= 1:
            return 0.0
        stages = math.ceil(math.log2(nranks))
        hops = self.hop_count(nranks)
        return (
            2.0 * stages * self.link_latency * hops
            + 2.0 * ((nranks - 1) / nranks) * nbytes / self.link_bw
            + self._staged(nbytes)
        )

    def alltoallv_time(self, nbytes_per_rank: float, nranks: int) -> float:
        """Pairwise-exchange all-to-all; ``nbytes_per_rank`` = send volume."""
        if nranks <= 1:
            return 0.0
        hops = self.hop_count(nranks)
        return (
            (nranks - 1) * self.link_latency * hops
            + nbytes_per_rank / self.link_bw
            + self._staged(nbytes_per_rank)
        )

    def allgatherv_time(self, nbytes_total: float, nranks: int) -> float:
        """Ring allgather of ``nbytes_total`` distributed data."""
        if nranks <= 1:
            return 0.0
        return (
            (nranks - 1) * self.link_latency
            + nbytes_total * ((nranks - 1) / nranks) / self.link_bw
            + self._staged(nbytes_total / nranks)
        )

    # -- compute primitives (seconds) --------------------------------------------
    def gemm_time(self, flops: float, char_flops: float | None = None) -> float:
        """GEMM-like time; ``char_flops`` = size of one characteristic
        multiply, ramping the sustained efficiency for small blocks."""
        eff = self.flop_efficiency
        if char_flops is not None:
            eff *= min(1.0, 0.15 + 0.85 * char_flops / self.gemm_ramp_flops)
        return flops / (self.flops_per_rank * eff)

    def fft_box_time(self, ngrid: int) -> float:
        """Bandwidth-bound time of one complex 3-D FFT of ``ngrid`` points.

        A 3-D transform makes ``fft_passes`` effective memory sweeps; the
        sustained bandwidth ramps with box size (tiny boxes fall out of
        streaming behaviour), saturating near 1e6 points.
        """
        ramp = min(1.0, 0.25 + 0.75 * ngrid / 1.0e6)
        return self.fft_passes * ngrid * 16.0 / (self.mem_bw_per_rank * ramp)

    def stream_time(self, nbytes: float) -> float:
        """Bandwidth-bound elementwise work."""
        return nbytes / self.mem_bw_per_rank


#: Fugaku A64FX rank = 1 CMG (Sec. V). 0.845 TF, 256 GB/s, 8 GB per rank.
FUGAKU_ARM = MachineSpec(
    name="fugaku-arm",
    flops_per_rank=0.845e12,
    mem_bw_per_rank=256.0e9,
    link_bw=5.0e9,
    link_latency=4.0e-6,
    topology="torus6d",
    ranks_per_node=4,
    mem_per_rank=8.0e9,
    bcast_bw_penalty=1.7,
    flop_efficiency=0.30,
    fft_passes=40.0,
    bl_sigma_fill=0.015,
    eigh_ranks_cap=8,
    overlap_efficiency=0.04,
    gemm_ramp_flops=4.0e9,
    per_iteration_overhead=0.02,
)

#: A100 cluster rank = 1 GPU. PCIe-staged networking: the effective
#: per-rank link bandwidth is limited by the shared PCIe/NIC path
#: (no GPUDirect; Sec. VIII-D).
A100_GPU = MachineSpec(
    name="a100-gpu",
    flops_per_rank=9.7e12,
    mem_bw_per_rank=1.5e12,
    link_bw=9.7e9,
    link_latency=6.0e-5,
    topology="fattree",
    ranks_per_node=4,
    mem_per_rank=40.0e9,
    bcast_bw_penalty=3.0,
    flop_efficiency=0.50,
    fft_passes=10.0,
    bl_sigma_fill=0.015,
    eigh_ranks_cap=64,
    overlap_efficiency=0.29,
    gemm_ramp_flops=4.0e9,
    per_iteration_overhead=0.12,
)

#: every machine model, by name: the one list of platforms
MACHINES: Dict[str, MachineSpec] = {m.name: m for m in (FUGAKU_ARM, A100_GPU)}


def machine_by_name(name: str) -> MachineSpec:
    """Look up a machine model: ``"fugaku-arm"`` or ``"a100-gpu"``."""
    key = name.strip().lower()
    if key in ("arm", "fugaku"):
        key = "fugaku-arm"
    if key in ("gpu", "a100"):
        key = "a100-gpu"
    try:
        return MACHINES[key]
    except KeyError:
        raise KeyError(f"unknown machine {name!r}; available: {sorted(MACHINES)}") from None
