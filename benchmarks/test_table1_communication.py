"""Table I — MPI communication-time breakdown for 1536-atom silicon on
ARM (960 nodes) and GPU (96 nodes), for the ACE / Ring / Async variants.

Layer 1 prints the calibrated model's table next to the paper's; layer 2
*executes* the three communication schedules on simulated ranks with the
real numerics and shows the same qualitative breakdown from the ledger.
"""

import numpy as np
import pytest

from repro.parallel import CostLedger, DistributedFockExchange, FUGAKU_ARM, SimComm
from repro.perf.calibrate import TABLE1
from repro.perf.experiments import format_table1, table1_communication
from repro.utils.rng import default_rng
from repro.xc.kernels import erfc_screened_kernel


@pytest.mark.parametrize("machine", ["fugaku-arm", "a100-gpu"])
def test_table1_model(machine, benchmark):
    r = table1_communication(machine)
    print("\n" + format_table1(r))
    print("# paper:")
    for variant, row in TABLE1[machine].items():
        cells = " ".join(f"{k}={v}" for k, v in row.items())
        print(f"#   {variant}: {cells}")
    rows = r["rows"]
    assert rows["ACE"]["total_comm"] > rows["Ring"]["total_comm"] > rows["Async"]["total_comm"]
    benchmark(lambda: table1_communication(machine))


def test_table1_executed_ledger(bench_grid, benchmark):
    """The executed simulated-MPI run shows the same category migration:
    bcast -> sendrecv -> wait as the pattern changes."""
    rng = default_rng(2)
    n = 8
    phi = bench_grid.random_orbitals(n, rng)
    w = rng.random(n)
    kern = erfc_screened_kernel(bench_grid)

    print("\n# executed ledger (8 bands, 4 simulated Fugaku ranks), seconds x 1e6")
    rows = {}
    for pattern in ("bcast", "ring", "async-ring"):
        ledger = CostLedger()
        comm = SimComm(4, FUGAKU_ARM, ledger)
        out = DistributedFockExchange(bench_grid, kern, comm).apply_diag(phi, w, pattern=pattern)
        rows[pattern] = ledger.seconds_by_category()
        cells = " ".join(f"{k}={v * 1e6:8.2f}" for k, v in rows[pattern].items() if v > 0)
        print(f"#   {pattern:<11}: {cells}")

    assert rows["bcast"]["bcast"] > 0 and rows["bcast"]["sendrecv"] == 0
    assert rows["ring"]["sendrecv"] > 0 and rows["ring"]["bcast"] == 0
    assert rows["async-ring"]["sendrecv"] > 0  # only the tiny weight vector
    total = {p: sum(v.values()) for p, v in rows.items()}
    assert total["bcast"] > total["ring"] >= total["async-ring"]

    ledger = CostLedger()
    comm = SimComm(4, FUGAKU_ARM, ledger)
    dist = DistributedFockExchange(bench_grid, kern, comm)
    benchmark(lambda: dist.apply_diag(phi, w, pattern="async-ring"))
