"""Simulated-MPI parallel substrate.

The paper's systems innovation (Sec. IV-B) is about *communication
patterns*: replacing orbital broadcasts with (asynchronous) ring
point-to-point rotation, and replicated N x N matrices with node-level
shared memory.  This package runs the exchange's one rank program on
per-rank numpy shards under :class:`SimComm`'s lockstep driver — bitwise
the serial operator, that program's one-rank run — while every message
is counted into the process's tally, whose :class:`CostLedger` reads the
modeled communication time per MPI-operation category, reproducing the
paper's Table I breakdown.
"""

from repro.utils.lazy import lazy_exports

#: public name -> submodule, imported on first use: the machine specs and
#: the pattern names are read by config validation in processes that
#: never build the exchange operator
_EXPORTS = {
    **dict.fromkeys(("MachineSpec", "FUGAKU_ARM", "A100_GPU", "machine_by_name"), ".machine"),
    "CostLedger": ".ledger",
    **dict.fromkeys(("PATTERNS", "SimComm"), ".comm"),
    "DistributedFockExchange": ".distfock",
    **dict.fromkeys(("ParallelContext", "ParallelRunInfo"), ".context"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
