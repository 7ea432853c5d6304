"""Simulated-MPI parallel substrate.

The paper's systems innovation (Sec. IV-B) is about *communication
patterns*: replacing orbital broadcasts with (asynchronous) ring
point-to-point rotation, and replicated N x N matrices with node-level
shared memory.  This package executes those distributed algorithms
deterministically on per-rank numpy shards — numerically identical to the
serial code (tested) — while a :class:`CostLedger` tallies modeled
communication time per MPI-operation category, reproducing the paper's
Table I breakdown.
"""

from repro.parallel.machine import MachineSpec, FUGAKU_ARM, A100_GPU, machine_by_name
from repro.parallel.ledger import CostLedger, CommRecord
from repro.parallel.comm import SimComm
from repro.parallel.layouts import BandLayout
from repro.parallel.distfock import PATTERNS, DistributedFockExchange
from repro.parallel.context import ParallelContext, ParallelRunInfo

__all__ = [
    "PATTERNS",
    "ParallelContext",
    "ParallelRunInfo",
    "MachineSpec",
    "FUGAKU_ARM",
    "A100_GPU",
    "machine_by_name",
    "CostLedger",
    "CommRecord",
    "SimComm",
    "BandLayout",
    "DistributedFockExchange",
]
