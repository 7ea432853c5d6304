"""The exact-repeat counters of the two hybrid benchmark workloads.

``si8-hse-dense-r2`` and ``si8-hse-ace`` run here in-process at seed 1
and the size ``python -m bench --seed 1 --seconds 4`` gives them (two
steps each), under a fresh recorder, and each counter is read off that
one tally.  The counts repeat exactly from run to run, so a change that
moves one (an extra transform, a message more or fewer) fails here
before it reaches the benchmark.
"""

import pytest

from bench.workloads import si8_config
from repro.api import Simulation
from repro.backend import FFTTally
from repro.parallel import CostLedger
from repro.trace import recording

#: workload -> counter -> its value at seed 1, two steps
PINS = {
    "si8-hse-dense-r2": {
        "backend.fft.transforms": 26457,
        "parallel.comm.bytes": 75666336,
        "parallel.distfock.apply_diag.calls": 31,
    },
    "si8-hse-ace": {
        "backend.fft.transforms": 24391,
        "backend.fft.batched_calls": 1706,
    },
}


def counters(workload):
    """The pinned counters of ``workload``'s run, read off its tally."""
    config = si8_config(1, dense=workload == "si8-hse-dense-r2", n_steps=2)
    with recording() as rec:
        sim = Simulation(config)
        sim.ground_state()
        sim.propagate()
    tally = rec.snapshot()
    fft = FFTTally.of(tally)
    return {
        "backend.fft.transforms": fft.transforms,
        "backend.fft.batched_calls": fft.calls,
        "parallel.comm.bytes": sum(CostLedger(tally).bytes_by_category().values()),
        "parallel.distfock.apply_diag.calls": tally.spans.get("parallel.distfock.apply_diag", (0,))[0],
    }


@pytest.mark.parametrize("workload", sorted(PINS))
def test_benchmark_counters_repeat_exactly(workload):
    measured = counters(workload)
    assert {name: measured[name] for name in PINS[workload]} == PINS[workload]
