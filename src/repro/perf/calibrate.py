"""Paper anchors and calibration notes.

Every measured number the paper reports (Fig. 9-11, Table I, Sec. VIII
prose) is collected here, both as the calibration target for the machine
models in :mod:`repro.parallel.machine` and as the paper column
``repro perf`` prints beside the model.  Tests in ``tests/test_perf_model.py``
assert that the model reproduces the *shape* of each result (ordering,
approximate factors) within tolerance bands.
"""

from __future__ import annotations

from typing import Dict, Tuple

# --- Fig. 9: step-by-step speedups, 384-atom Si -----------------------------
#: incremental speedup of each optimization over the previous stage
FIG9_SPEEDUPS = {
    "fugaku-arm": {"Diag": 12.86, "ACE": 3.3, "Ring": 1.13, "Async": 1.14},
    "a100-gpu": {"Diag": 7.57, "ACE": 3.6, "Ring": 1.23, "Async": 1.23},
}
#: cumulative BL -> Async speedups (abstract / Sec. VIII-A)
FIG9_TOTAL_SPEEDUP = {"fugaku-arm": 55.15, "a100-gpu": 41.44}
#: nodes used in the Fig. 9 test (x4 ranks per node)
FIG9_NODES = {"fugaku-arm": 240, "a100-gpu": 24}
FIG9_NATOM = 384

# --- Sec. VIII-A2 prose anchors ----------------------------------------------
#: H*Phi seconds per step before ACE (25 dense) and after (inner loop)
HPHI_SECONDS = {"fugaku-arm": (148.5, 6.0), "a100-gpu": (110.6, 20.3)}
#: total ACE preparation seconds per step
ACE_PREP_SECONDS = {"fugaku-arm": 23.0, "a100-gpu": 17.4}

# --- Fig. 10: strong scaling ---------------------------------------------------
#: (natom, node range, speedup achieved over the range, parallel efficiency)
STRONG_SCALING = {
    "fugaku-arm": {"natom": 768, "nodes": (15, 480), "speedup": 11.79, "efficiency": 0.368},
    "a100-gpu": {"natom": 1536, "nodes": (12, 192), "speedup": 3.67, "efficiency": 0.229},
}

# --- Fig. 11: weak scaling -------------------------------------------------------
#: nodes = nbands / ranks_per_orbital_rule (ARM: orbitals/4, GPU: orbitals/40)
WEAK_SCALING_RULE = {"fugaku-arm": 4.0, "a100-gpu": 40.0}
WEAK_SCALING_ATOMS = {
    "fugaku-arm": (48, 96, 192, 384, 768, 1536),
    "a100-gpu": (48, 96, 192, 384, 768, 1536, 3072),
}
#: measured per-step seconds quoted in Sec. VIII-C
WEAK_ANCHORS = {
    ("a100-gpu", 192): 11.40,
    ("a100-gpu", 3072): 429.29,
}

# --- Table I: communication breakdown, 1536-atom Si ----------------------------
#: nodes used for the Table I runs
TABLE1_NODES = {"fugaku-arm": 960, "a100-gpu": 96}
TABLE1_NATOM = 1536
#: seconds per category; '-' entries are 0
TABLE1 = {
    "fugaku-arm": {
        "ACE": {"alltoallv": 9.04, "sendrecv": 0.0, "wait": 0.0, "allgatherv": 0.17, "allreduce": 14.19, "bcast": 67.22, "total_comm": 90.62, "comm_ratio": 0.1892},
        "Ring": {"alltoallv": 9.03, "sendrecv": 30.1, "wait": 0.0, "allgatherv": 0.17, "allreduce": 14.21, "bcast": 0.03, "total_comm": 53.54, "comm_ratio": 0.1273},
        "Async": {"alltoallv": 9.18, "sendrecv": 0.0, "wait": 20.13, "allgatherv": 0.17, "allreduce": 14.18, "bcast": 0.03, "total_comm": 43.69, "comm_ratio": 0.1065},
    },
    "a100-gpu": {
        "ACE": {"alltoallv": 7.95, "sendrecv": 0.0, "wait": 0.0, "allgatherv": 0.47, "allreduce": 4.99, "bcast": 64.85, "total_comm": 78.26, "comm_ratio": 0.2572},
        "Ring": {"alltoallv": 7.35, "sendrecv": 20.54, "wait": 0.0, "allgatherv": 0.47, "allreduce": 4.46, "bcast": 0.89, "total_comm": 33.71, "comm_ratio": 0.2113},
        "Async": {"alltoallv": 7.64, "sendrecv": 0.0, "wait": 10.1, "allgatherv": 0.47, "allreduce": 4.28, "bcast": 0.82, "total_comm": 23.31, "comm_ratio": 0.1638},
    },
}

# --- headline ---------------------------------------------------------------------
#: 3072 atoms (12288 electrons) on 192 GPU nodes: seconds per 50 as step
HEADLINE_3072_SECONDS = 429.3
#: largest runs: 1536 atoms on 960 Fugaku nodes, 3072 atoms on 768 A100s
MAX_ATOMS = {"fugaku-arm": 1536, "a100-gpu": 3072}


def ranks_for_nodes(machine_name: str, nodes: int) -> int:
    """Both platforms run 4 MPI ranks per node (Sec. VIII)."""
    return 4 * nodes
