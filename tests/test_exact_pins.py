"""The exact-repeat counters of the two hybrid benchmark workloads.

``si8-hse-dense-r2`` and ``si8-hse-ace`` run here in-process at seed 1
and the size ``python -m bench --seed 1 --seconds 4`` gives them (two
steps each), under a fresh recorder, and each counter is read off that
one tally.  The counts repeat exactly from run to run, so a change that
moves one (an extra transform, a message more or fewer) fails here
before it reaches the benchmark.  Each workload runs once per session;
its pins, its bounds and its one-rotation-per-decomposition check all
read the same counters.
"""

import functools
import statistics

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

#: workload -> counter -> the most it may read (each repeats exactly too;
#: the comment gives the value it reads at seed 1, two steps)
BOUNDS = {
    "si8-hse-dense-r2": {
        # 10.0 (20.0 with the plain map of tests/oracles.py): the cheapest
        # gate that the IMEX preconditioner is on
        "rt.fock_applications_per_step": 12,
        # 25 (35 while the hybrid SCF decomposed its diagonal sigma, 38
        # while each observed energy decomposed sigma a second time)
        "occupation.diagonalize_sigma.calls": 25,
    },
    "si8-hse-ace": {
        # 41 (49 from a uniform density and random orbitals): the SCF's
        # start and tolerance schedule are on
        "scf.iterations": 42,
        # 75 (85 while the hybrid SCF decomposed its diagonal sigma, 109
        # while the density, the exchange sources and each ACE build
        # decomposed sigma on their own): each midpoint is decomposed once
        "occupation.diagonalize_sigma.calls": 75,
    },
}


@functools.lru_cache(maxsize=None)
def counters(workload):
    """The counters of ``workload``'s run, read off its tally (one run per
    workload and session)."""
    config = si8_config(1, dense=workload == "si8-hse-dense-r2", n_steps=2)
    with recording() as rec:
        sim = Simulation(config)
        gs = sim.ground_state()
        steps = sim.propagate().record.stats[1:]
    tally = rec.snapshot()
    fft = FFTTally.of(tally)

    def calls(name):
        return tally.spans.get(name, (0,))[0]

    return {
        "backend.fft.transforms": fft.transforms,
        "backend.fft.batched_calls": fft.calls,
        "parallel.comm.bytes": sum(CostLedger(tally).bytes_by_category().values()),
        "parallel.distfock.apply_diag.calls": calls("parallel.distfock.apply_diag"),
        "scf.iterations": gs.scf_iterations,
        "rt.fock_applications_per_step": statistics.fmean(s.fock_applications for s in steps),
        "occupation.diagonalize_sigma.calls": calls("occupation.diagonalize_sigma"),
        "occupation.rotate_orbitals.calls": calls("occupation.rotate_orbitals"),
    }


@pytest.mark.parametrize("workload", sorted(PINS))
def test_benchmark_counters_repeat_exactly(workload):
    measured = counters(workload)
    assert {name: measured[name] for name in PINS[workload]} == PINS[workload]


@pytest.mark.parametrize("workload", sorted(BOUNDS))
def test_benchmark_counters_stay_within_their_bounds(workload):
    measured = counters(workload)
    over = {name: measured[name] for name, most in BOUNDS[workload].items() if measured[name] > most}
    assert over == {}


@pytest.mark.parametrize("workload", sorted(BOUNDS))
def test_each_sigma_decomposition_rotates_the_orbitals_once(workload):
    """Midpoints and observed states alike: ``observe`` rotates its rows
    once for the density and every energy term."""
    measured = counters(workload)
    assert measured["occupation.rotate_orbitals.calls"] == measured["occupation.diagonalize_sigma.calls"]
