"""Analytic operation counts per PT-IM(-ACE) time step.

The counts mirror the paper's complexity statements:

* mixed-state Fock baseline: N^3 FFT pairs per application (Alg. 2);
* after sigma diagonalization: N^2 FFT pairs (Sec. IV-A1);
* density: N^2 -> N FFT-equivalents (Sec. IV-A1);
* ACE: ~5 dense applications per step instead of 25 (Sec. IV-A2), with
  the inner loop applying rank-N GEMMs.

For a small system the tests check the dense-Fock counts against the
transforms the real numerics count into the process's tally
(:mod:`repro.trace`): the triple loop's 2 N^3 transforms equal the tally, while the
diagonalized kernel's tally is N(N+1) (each unordered pair once) and the
model keeps the paper's 2 N^2.  The same formulas then drive paper-scale
projections.

System-size relations (paper Sec. VI): silicon with 4 valence electrons
per atom, ``N = 2 n_atom + extra`` orbitals (extra = n_atom/2 in
performance tests), and ``Ng = 421.875 n_atom`` wavefunction grid points
(1536 atoms -> 60 x 90 x 120 = 648000).
"""

from __future__ import annotations

from dataclasses import dataclass

#: paper SCF statistics (Sec. IV-A2 / VI)
PTIM_SCF_PER_STEP = 25
ACE_OUTER_PER_STEP = 5
ACE_INNER_PER_OUTER = 13

#: bytes of one complex128 value
CPLX = 16.0

VARIANTS = ("BL", "Diag", "ACE", "Ring", "Async")


@dataclass(frozen=True)
class SystemSize:
    """Derived sizes of a silicon benchmark system."""

    natom: int
    extra_ratio: float = 0.5
    grid_per_atom: float = 421.875

    @property
    def n_electrons(self) -> int:
        return 4 * self.natom

    @property
    def nbands(self) -> int:
        """Paper: N = Ne/2 + extra = 2 n_atom + extra_ratio n_atom."""
        return int(round((2.0 + self.extra_ratio) * self.natom))

    @property
    def ngrid(self) -> int:
        return int(round(self.grid_per_atom * self.natom))


@dataclass
class StepCounts:
    """Per-rank operation counts for one propagation time step.

    All counts are per MPI rank (band-parallel layout with P ranks).
    """

    # compute
    fft_transforms: float = 0.0  # number of 3-D FFTs on the wavefunction grid
    gemm_flops: float = 0.0
    stream_bytes: float = 0.0
    eigh_flops: float = 0.0  # N^3-style replicated dense algebra
    iterations: float = 0.0  # fixed-point iterations (launch-overhead units)
    # communication (volumes per rank, message counts)
    bcast_bytes: float = 0.0
    bcast_messages: float = 0.0
    sendrecv_bytes: float = 0.0
    sendrecv_messages: float = 0.0
    async_steps: float = 0.0  # posted ring transfers (async pattern)
    async_block_bytes: float = 0.0  # bytes per async transfer
    async_overlap_fft: float = 0.0  # FFTs hiding each async transfer
    allreduce_bytes: float = 0.0
    allreduce_messages: float = 0.0
    alltoallv_bytes: float = 0.0
    alltoallv_messages: float = 0.0
    allgatherv_bytes: float = 0.0
    allgatherv_messages: float = 0.0
    shared_memory: bool = False

    def add(self, other: "StepCounts") -> None:
        for f in self.__dataclass_fields__:
            if f in ("shared_memory", "async_block_bytes", "async_overlap_fft"):
                continue
            setattr(self, f, getattr(self, f) + getattr(other, f))
        # per-transfer quantities are set, not summed
        if other.async_block_bytes:
            self.async_block_bytes = other.async_block_bytes
        if other.async_overlap_fft:
            self.async_overlap_fft = other.async_overlap_fft


def _dense_fock_counts(
    n: int, ng: int, p: int, triple_loop: bool, bl_sigma_fill: float = 0.014
) -> StepCounts:
    """One dense Fock application: FFT pairs + pair-product streams.

    Per rank: the local N/P targets each need all N sources; the triple
    loop (Alg. 2) redoes the (k, j) convolution per active sigma_ik entry
    — ``bl_sigma_fill * N`` extra loop iterations (the occupation matrix
    of a thermal state is diagonally dominant, so skipping negligible
    entries leaves an O(fill x N) band; the fill fraction is calibrated
    from Fig. 9's BL -> Diag speedup).
    """
    # the paper's N^2: its machine does not use the pair symmetry that
    # FockExchangeOperator.apply_diag does (N(N+1)/2 solves on its own sources)
    pairs = n * (n / p)  # (source, local target) pairs
    if triple_loop:
        pairs *= max(bl_sigma_fill * n, 1.0)
    c = StepCounts()
    c.fft_transforms = 2.0 * pairs
    c.stream_bytes = 5.0 * pairs * ng * CPLX  # form pair density, kernel mult, accumulate
    return c


def _density_counts(n: int, ng: int, p: int, pairwise: bool) -> StepCounts:
    """Charge density: N^2 pair FFT-equivalents (baseline) vs N + GEMM."""
    c = StepCounts()
    if pairwise:
        c.fft_transforms = 2.0 * n * (n / p)
        c.stream_bytes = 3.0 * n * (n / p) * ng * CPLX
    else:
        c.fft_transforms = 2.0 * (n / p)
        c.gemm_flops = 8.0 * n * n * ng / p  # rotation Phi Q
        c.stream_bytes = 3.0 * (n / p) * ng * CPLX
    return c


def _semilocal_h_counts(n: int, ng: int, p: int) -> StepCounts:
    """Kinetic + local + nonlocal application for the local band shard."""
    c = StepCounts()
    c.fft_transforms = 4.0 * (n / p)
    c.gemm_flops = 2.0 * 8.0 * 0.15 * n * n * ng / p  # nonlocal projectors (~0.15N each)
    c.stream_bytes = 6.0 * (n / p) * ng * CPLX
    return c


#: N^2 Ng GEMM-equivalents per SCF iteration outside the exchange kernel:
#: overlap matrices, projector (I - P~) application, Anderson mixing over
#: the 20-deep wavefunction history, Löwdin orthonormalization, density
#: rotation — the "other calculations" of paper Sec. III-C
SUBSPACE_GEMMS_PER_SCF = 25.0

def _subspace_counts(n: int, ng: int, p: int) -> StepCounts:
    """Overlaps, projector application, mixing, dense algebra per SCF."""
    c = StepCounts()
    c.iterations = 1.0
    c.gemm_flops = SUBSPACE_GEMMS_PER_SCF * 8.0 * n * n * ng / p
    c.eigh_flops = 20.0 * n**3  # sigma diagonalization + RR solves (distributed)
    c.stream_bytes = 2.0 * 20.0 * (n / p) * ng * CPLX  # Anderson history traffic
    c.allreduce_bytes = 2.0 * n * n * CPLX
    c.allreduce_messages = 2.0
    c.alltoallv_bytes = 2.0 * n * ng * CPLX / p
    c.alltoallv_messages = 2.0
    c.allgatherv_bytes = n * 8.0
    c.allgatherv_messages = 1.0
    return c


def _fock_comm_counts(n: int, ng: int, p: int, pattern: str, batch: int = 16) -> StepCounts:
    """Source-orbital movement for ONE dense Fock application."""
    c = StepCounts()
    volume = n * ng * CPLX  # every rank sees all N orbitals
    if pattern == "bcast":
        c.bcast_bytes = volume
        c.bcast_messages = max(n / batch, 1.0)
    elif pattern == "ring":
        c.sendrecv_bytes = volume * (p - 1.0) / p
        c.sendrecv_messages = max(p - 1.0, 0.0)
    else:  # "async-ring", the one left: variant_counts picks from the three
        c.async_steps = max(p - 1.0, 0.0)
        c.async_block_bytes = (n / p) * ng * CPLX
        # FFT work available per ring step to hide the transfer:
        # the local targets x one received source block
        c.async_overlap_fft = 2.0 * (n / p) * (n / p)
    return c


def _ace_apply_counts(n: int, ng: int, p: int) -> StepCounts:
    """One compressed-exchange application: two skinny GEMMs + allreduce."""
    c = StepCounts()
    c.gemm_flops = 2.0 * 8.0 * n * n * ng / p
    c.allreduce_bytes = n * (n / p) * CPLX
    c.allreduce_messages = 1.0
    return c


def _ace_build_counts(n: int, ng: int, p: int) -> StepCounts:
    """ACE construction on top of the dense action: M, factorization, xi."""
    c = StepCounts()
    c.gemm_flops = 2.0 * 8.0 * n * n * ng / p
    c.eigh_flops = 8.0 * n**3
    c.allreduce_bytes = n * n * CPLX
    c.allreduce_messages = 1.0
    return c


def variant_counts(
    size: SystemSize, nranks: int, variant: str, bl_sigma_fill: float = 0.014
) -> StepCounts:
    """Total per-rank counts of one time step for an algorithm variant.

    Variants are cumulative, matching Fig. 9:

    ======  =====================================================
    BL      PT-IM, Alg. 2 triple-loop Fock, pairwise density, bcast
    Diag    + occupation-matrix diagonalization (Sec. IV-A1)
    ACE     + double loop with compressed exchange (Sec. IV-A2)
    Ring    + ring point-to-point source rotation (Sec. IV-B1)
    Async   + overlap & node shared memory (Sec. IV-B2/B3)
    ======  =====================================================
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; use one of {VARIANTS}")
    n, ng, p = size.nbands, size.ngrid, nranks
    total = StepCounts()

    if variant in ("BL", "Diag"):
        n_scf = PTIM_SCF_PER_STEP
        triple = variant == "BL"
        # dense Fock in every SCF iteration
        dense = _dense_fock_counts(n, ng, p, triple_loop=triple, bl_sigma_fill=bl_sigma_fill)
        comm = _fock_comm_counts(n, ng, p, "bcast")
        dens = _density_counts(n, ng, p, pairwise=triple)
        for c in (dense, comm, dens, _semilocal_h_counts(n, ng, p), _subspace_counts(n, ng, p)):
            for _ in range(n_scf):
                total.add(c)
        return total

    # ACE-family variants: double loop
    pattern = {"ACE": "bcast", "Ring": "ring", "Async": "async-ring"}[variant]
    n_outer = ACE_OUTER_PER_STEP
    n_inner = ACE_OUTER_PER_STEP * ACE_INNER_PER_OUTER

    dense = _dense_fock_counts(n, ng, p, triple_loop=False)
    comm = _fock_comm_counts(n, ng, p, pattern)
    build = _ace_build_counts(n, ng, p)
    for _ in range(n_outer):
        total.add(dense)
        total.add(comm)
        total.add(build)
    inner_unit = StepCounts()
    inner_unit.add(_ace_apply_counts(n, ng, p))
    inner_unit.add(_density_counts(n, ng, p, pairwise=False))
    inner_unit.add(_semilocal_h_counts(n, ng, p))
    inner_unit.add(_subspace_counts(n, ng, p))
    for _ in range(n_inner):
        total.add(inner_unit)
    total.shared_memory = variant == "Async"
    return total
