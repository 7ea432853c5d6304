"""Distributed execution through the facade: parity, ledgers, round trips.

The acceptance bar of the ``[parallel]`` section is *bitwise* equality
with the serial path — SCF and RT trajectories — at every rank count and
communication pattern, with the :class:`~repro.parallel.ledger.CostLedger`
recording each schedule's true traffic.  One small HSE system is solved
serially once (module-scoped); distributed variants share or re-converge
it as each test requires.
"""

import numpy as np
import pytest

from repro.api import Simulation, SimulationConfig
from repro.api.config import ConfigError, ParallelConfig
from repro.api.ensemble import SweepConfig, run_ensemble
from repro.api.simulation import SimulationResult, read_result_npz, write_result_npz
from repro.backend import FFTTally
from repro.grid import PlaneWaveGrid, silicon_cubic_cell
from repro.hamiltonian.fock import FockExchangeOperator
from repro.parallel import (
    CostLedger,
    DistributedFockExchange,
    FUGAKU_ARM,
    ParallelRunInfo,
    SimComm,
)
from repro.parallel.ledger import charge
from repro.trace import recording
from repro.utils.rng import default_rng
from repro.xc.kernels import erfc_screened_kernel

# small HSE system: ~6 s SCF, <1 s per PT-IM-ACE step on the CI box.
# nbands=20 over 4 ranks shards evenly (5/5/5/5) and over 3 ranks
# unevenly (7/7/6) — both shapes must be bit-identical to serial.
CFG = {
    "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "hse"},
    "scf": {
        "nbands": 20, "density_tol": 1e-4, "exchange_tol": 1e-4,
        "max_scf": 10, "max_outer": 3,
    },
    "field": {"kind": "static_kick", "params": {"kick": 2e-3}},
    "propagation": {
        "propagator": "ptim_ace", "dt_as": 50.0, "n_steps": 1,
        "options": {
            "density_tol": 1e-5, "exchange_tol": 1e-5,
            "max_inner": 8, "max_outer": 4,
        },
    },
}


def _parallel_cfg(ranks, pattern, **extra):
    return {"ranks": ranks, "pattern": pattern, "enabled": True, **extra}


@pytest.fixture(scope="module")
def serial_sim():
    sim = Simulation(CFG)
    result = sim.run()
    return sim, result


def _assert_bitwise(obs_a, obs_b):
    for key in obs_a:
        np.testing.assert_array_equal(obs_a[key], obs_b[key], err_msg=key)


# ---------------- config section ----------------------------------------------
def test_parallel_config_defaults_inactive_round_trip():
    cfg = ParallelConfig()
    assert not cfg.active and cfg.ranks == 1 and cfg.pattern == "ring"
    assert ParallelConfig.from_dict(cfg.to_dict()) == cfg
    assert ParallelConfig(ranks=2).active
    assert ParallelConfig(ranks=4, enabled=False).active is False
    assert ParallelConfig(enabled=True).active
    # aliases canonicalize for provenance
    assert ParallelConfig(machine="gpu").machine == "a100-gpu"


@pytest.mark.parametrize(
    "bad",
    [
        {"ranks": 0},
        {"pattern": "gossip"},
        {"machine": "cray"},
        {"use_shm": "yes"},
        {"nope": 1},
        {"ranks": True},
    ],
)
def test_parallel_config_rejects_bad_values(bad):
    with pytest.raises(ConfigError):
        ParallelConfig.from_dict(bad)


def test_parallel_section_in_simulation_config_round_trip():
    cfg = SimulationConfig.from_dict(
        {**CFG, "parallel": _parallel_cfg(4, "async-ring", use_shm=False)}
    )
    again = SimulationConfig.from_json(cfg.to_json())
    assert again == cfg and again.parallel.active


# ---------------- protocol ------------------------------------------------------
def test_distributed_fock_satisfies_operator_protocol():
    grid = PlaneWaveGrid(silicon_cubic_cell(), ecut=2.0)
    kern = erfc_screened_kernel(grid)
    dist = DistributedFockExchange(grid, kern, SimComm(3, FUGAKU_ARM))
    assert isinstance(dist, FockExchangeOperator)
    # it moves only where the tile pairs run, and what the energy charges
    overridden = set(vars(DistributedFockExchange)) & set(vars(FockExchangeOperator))
    assert overridden - {"__module__", "__doc__"} == {"__init__", "apply_diag", "exchange_energy"}


# ---------------- SCF + trajectory parity ---------------------------------------
@pytest.mark.parametrize("ranks", [2, 4])
def test_distributed_scf_bitwise_identical_to_serial(serial_sim, ranks):
    """From-scratch distributed SCF: the converged state is bit-for-bit
    the serial state (uneven shards included via the propagation tests)."""
    serial, _ = serial_sim
    sim = Simulation({**CFG, "parallel": _parallel_cfg(ranks, "ring")})
    gs_p, gs_s = sim.ground_state(), serial.ground_state()
    # the SCF's own modeled MPI time: all this session has charged so far
    assert sim.parallel.session_ledger().total_seconds() > 0.0
    assert serial.parallel is None
    np.testing.assert_array_equal(gs_p.orbitals, gs_s.orbitals)
    np.testing.assert_array_equal(gs_p.sigma, gs_s.sigma)
    assert gs_p.total_energy == gs_s.total_energy


@pytest.mark.parametrize("pattern", ["bcast", "ring", "async-ring"])
@pytest.mark.parametrize("ranks", [1, 2, 3, 4])
def test_distributed_trajectory_bitwise_identical(serial_sim, pattern, ranks):
    """One RT step under every pattern at ranks {1,2,3,4} — ranks=3
    exercises uneven band shards (20 bands -> 7/7/6)."""
    serial, serial_result = serial_sim
    sim = serial.derive(parallel=_parallel_cfg(ranks, pattern))
    result = sim.propagate()
    _assert_bitwise(serial_result.observables(), result.observables())
    assert result.parallel is not None
    assert (result.config.parallel.ranks, result.config.parallel.pattern) == (ranks, pattern)
    if ranks > 1:
        assert result.parallel.ledger.total_seconds() > 0.0


def test_distributed_fft_accounting_matches_serial(serial_sim):
    """One backend tally: the distributed run counts the serial transform
    count — nothing double-counted, nothing lost — and every rank a share."""
    serial, serial_result = serial_sim
    sim = serial.derive(parallel=_parallel_cfg(4, "ring"))
    result = sim.propagate()
    assert result.fft is not None
    assert result.fft.transforms == serial_result.fft.transforms
    assert result.fft.points == serial_result.fft.points
    by_rank = result.parallel.fft_rank_transforms
    assert len(by_rank) == 4
    assert all(n > 0 for n in by_rank)  # band shards balance the work
    assert max(by_rank) - min(by_rank) <= max(by_rank) // 2


def test_rank_transforms_are_per_run(serial_sim):
    """Each result's per-rank counts cover its own run only: the second
    run's are the difference of the cumulative counts, and their sum is
    within the run's own backend tally."""
    serial, _ = serial_sim
    sim = serial.derive(parallel=_parallel_cfg(2, "ring"))
    first, second = sim.propagate(n_steps=1), sim.propagate(n_steps=1)
    once, twice = first.parallel.fft_rank_transforms, second.parallel.fft_rank_transforms
    assert sum(twice) <= second.fft.transforms
    assert all(n > 0 for n in twice)
    cumulative = sim.parallel.run_info().fft_rank_transforms
    assert twice == [c - n for c, n in zip(cumulative, once)]


# ---------------- ledger invariants ---------------------------------------------
@pytest.fixture(scope="module")
def pattern_ledgers():
    """One dense exchange application per pattern on a shared grid."""
    grid = PlaneWaveGrid(silicon_cubic_cell(), ecut=2.0)
    rng = default_rng(5)
    phi = grid.random_orbitals(8, rng)
    w = rng.random(8)
    kern = erfc_screened_kernel(grid)
    ledgers = {}
    for pattern in ("bcast", "ring", "async-ring"):
        comm = SimComm(4, FUGAKU_ARM)
        with recording() as rec:
            DistributedFockExchange(grid, kern, comm, pattern=pattern).apply_diag(phi, w)
        ledgers[pattern] = CostLedger(rec.snapshot())
    return ledgers


def test_ledger_invariants_across_patterns(pattern_ledgers):
    """Paper Fig. 5 orderings on the *measured* ledgers."""
    sec = {p: led.seconds_by_category() for p, led in pattern_ledgers.items()}
    vol = {p: led.bytes_by_category() for p, led in pattern_ledgers.items()}
    # async-ring hides transfers behind compute: wait <= the ring's
    # synchronous sendrecv time for the same blocks
    assert sec["async-ring"]["wait"] <= sec["ring"]["sendrecv"]
    # broadcast trees congest: more expensive than ring hops per byte
    assert sec["bcast"]["bcast"] > sec["ring"]["sendrecv"]
    # and move more total volume than the ring rotation (even shards)
    assert vol["bcast"]["bcast"] > vol["ring"]["sendrecv"]
    # every pattern hands the gathered result to the serial consumers
    for p in pattern_ledgers:
        assert vol[p]["allgatherv"] > 0.0


def test_table1_categories_migrate_across_patterns(pattern_ledgers):
    """Table I's executed counterpart: the dense exchange's traffic moves
    from broadcasts to ring hops, and the total falls bcast > ring >=
    async-ring, whose only sendrecv left is the small weight vector."""
    sec = {p: led.seconds_by_category() for p, led in pattern_ledgers.items()}
    assert sec["bcast"]["bcast"] > 0 and sec["bcast"]["sendrecv"] == 0
    assert sec["ring"]["sendrecv"] > 0 and sec["ring"]["bcast"] == 0
    assert sec["async-ring"]["sendrecv"] > 0
    total = {p: sum(v.values()) for p, v in sec.items()}
    assert total["bcast"] > total["ring"] >= total["async-ring"]


def test_ring_sendrecv_grows_only_by_latency_with_ranks(small_grid):
    """Fig. 10's non-scalable term: the ring's per-rank volume stays flat,
    so its sendrecv seconds per application at 8 ranks stay below 4x
    those at 2."""
    rng = default_rng(1)
    phi = small_grid.random_orbitals(8, rng)
    w = rng.random(8)
    kern = erfc_screened_kernel(small_grid)
    sendrecv = {}
    for p in (2, 8):
        with recording() as rec:
            comm = SimComm(p, FUGAKU_ARM)
            DistributedFockExchange(small_grid, kern, comm, pattern="ring").apply_diag(phi, w)
        sendrecv[p] = CostLedger(rec.snapshot()).seconds_by_category()["sendrecv"]
    assert sendrecv[8] < 4.0 * sendrecv[2]


def test_use_shm_cheapens_matrix_allreduce():
    """Sec. IV-B3: node-shared matrices shrink the allreduce to one
    participant per node (16 ranks -> 4 nodes on the ARM model)."""
    grid = PlaneWaveGrid(silicon_cubic_cell(), ecut=2.0)
    rng = default_rng(6)
    phi = grid.random_orbitals(6, rng)
    d = rng.random(6)  # sigma = diag(d): the rows are its eigenbasis image
    kern = erfc_screened_kernel(grid)
    seconds = {}
    for use_shm in (False, True):
        comm = SimComm(16, FUGAKU_ARM)
        with recording() as rec:
            DistributedFockExchange(
                grid, kern, comm, pattern="ring", use_shm=use_shm
            ).exchange_energy(phi, d)
        seconds[use_shm] = CostLedger(rec.snapshot()).seconds_by_category()["allreduce"]
    assert 0.0 < seconds[True] < seconds[False]


def test_ledger_round_trip_and_mark():
    with recording() as rec:
        charge("bcast", 100.0, 1.5)
        charge("allreduce", 8.0, 0.0)
        mark = rec.snapshot()
        charge("sendrecv", 50.0, 0.25)
        charge("sendrecv", 0.0, 0.25)
        charge("allreduce", 8.0, 0.0)  # a message priced at zero is still charged
        delta = CostLedger(rec.since(mark))
    assert delta.total_seconds() == pytest.approx(0.5)
    assert delta.to_dict() == {
        "sendrecv": {"seconds": 0.5, "nbytes": 50.0, "count": 2},
        "allreduce": {"seconds": 0.0, "nbytes": 8.0, "count": 1},
    }
    ledger = CostLedger(rec.snapshot())
    again = CostLedger.from_dict(ledger.to_dict())
    assert again.to_dict() == ledger.to_dict()
    assert again.seconds_by_category() == ledger.seconds_by_category()
    assert again.bytes_by_category() == ledger.bytes_by_category()
    assert again.describe() == "sendrecv 5.000e-01  bcast 1.500e+00  | total 2.000e+00"
    assert CostLedger().describe() == "(none)  | total 0.000e+00"


# ---------------- result / checkpoint round trips --------------------------------
def test_result_npz_round_trips_parallel_block(serial_sim, tmp_path):
    serial, _ = serial_sim
    sim = serial.derive(parallel=_parallel_cfg(2, "async-ring"))
    result = sim.propagate()
    path = result.save_npz(tmp_path / "par.npz")
    # observables load exactly as for serial files
    config, arrays = SimulationResult.load_npz(path)
    assert config.parallel.active and config.parallel.pattern == "async-ring"
    np.testing.assert_array_equal(arrays["dipole"], result.observables()["dipole"])
    # and the parallel block round-trips separately; the layout is the config's
    back = read_result_npz(path)
    info, par = back.parallel, back.config.parallel
    assert isinstance(info, ParallelRunInfo)
    assert (par.ranks, par.pattern, par.machine) == (2, "async-ring", "fugaku-arm")
    assert info.ledger.seconds_by_category() == result.parallel.ledger.seconds_by_category()
    assert info.fft_rank_transforms == result.parallel.fft_rank_transforms
    # serial files have no block
    serial_path = serial.propagate(n_steps=0).save_npz(tmp_path / "ser.npz")
    assert read_result_npz(serial_path).parallel is None


@pytest.mark.parametrize("kind", ["serial", "parallel", "checkpoint"])
def test_the_one_reader_round_trips(serial_sim, kind, tmp_path):
    """A file read back and written again is the same file, member for
    member, in order, the ``parallel_json`` text included — written
    directly, or stored by ``ResultStore.add_run`` and loaded back; a
    checkpoint reads back with no record, still prints a summary, and is
    not a run the store takes."""
    from repro.store import ResultStore, StoreError, run_id_for

    serial, _ = serial_sim
    # a fresh derive() per case: a stored run is its config's whole trajectory from t = 0
    sim = serial.derive() if kind == "serial" else serial.derive(parallel=_parallel_cfg(2, "ring"))
    result = sim.propagate()
    first = tmp_path / "first.npz"
    if kind == "checkpoint":
        sim.save_checkpoint(first)
    else:
        result.save_npz(first)
    back = read_result_npz(first)
    copies = [write_result_npz(tmp_path / "again.npz", back)]
    store = ResultStore(tmp_path / "store")
    if kind == "checkpoint":
        with pytest.raises(StoreError, match=run_id_for(back.config)):
            store.add_run(back)
    else:
        copies.append(store.load_result(store.add_run(back)).save_npz(tmp_path / "stored.npz"))
    store.close()
    for copy in copies:
        with np.load(first) as a, np.load(copy) as b:
            assert a.files == b.files
            for key in a.files:
                assert np.array_equal(a[key], b[key], equal_nan=a[key].dtype.kind in "fc"), key
            assert ("parallel_json" in a.files) == (kind != "serial")
    if kind == "checkpoint":
        assert back.record is None and back.observables() == {}
        assert "parallel: ranks=2 pattern=ring" in back.summary()


@pytest.mark.parametrize("kind", ["result", "checkpoint", "checkpoint-1.13"])
def test_a_result_read_back_holds_only_what_its_file_holds(serial_sim, kind, tmp_path):
    """Every field of a result read back came from its file or is None: a
    file holds no FFT tally and no solver statistics, so they read as
    unknown (``summary()`` prints n/a and claims no convergence), a
    ledger block is read as written (a <= 1.13 one too, with no rank
    tally), and a ground-state field the file lacks is None."""
    import json
    from dataclasses import fields

    from repro.rt import StepStats
    from repro.scf import GroundState

    serial, _ = serial_sim
    sim = serial.derive(parallel=_parallel_cfg(2, "ring"))
    result = sim.propagate(n_steps=1)
    path = tmp_path / f"{kind}.npz"
    if kind == "result":
        result.save_npz(path)
    elif kind == "checkpoint":
        sim.save_checkpoint(path)
    else:
        gs = {k: v for k, v in sim.ground_state().to_arrays(prefix="gs_").items() if k != "gs_history"}
        np.savez(
            path, version=np.int64(1), config_json=np.str_(sim.config.to_json()),
            phi=sim.state.phi, sigma=sim.state.sigma, time=np.float64(sim.state.time),
            parallel_ledger_json=np.str_(
                json.dumps({"allreduce": {"seconds": 0.5, "nbytes": 64.0, "count": 2}})
            ),
            **gs,
        )
    back = read_result_npz(path)
    with np.load(path) as data:
        assert back.config == SimulationConfig.from_json(str(data["config_json"]))
        assert back.fft is None
        block = "parallel_ledger_json" if kind == "checkpoint-1.13" else "parallel_json"
        written = json.loads(str(data[block]))
        if kind == "checkpoint-1.13":
            assert back.parallel.ledger.to_dict() == written
            assert back.parallel.fft_rank_transforms is None
        else:
            assert back.parallel.to_dict() == written
        prefix = "" if kind == "checkpoint-1.13" else "final_"
        np.testing.assert_array_equal(back.final_state.phi, data[prefix + "phi"])
        np.testing.assert_array_equal(back.final_state.sigma, data[prefix + "sigma"])
        assert back.final_state.time == data[prefix + "time"]
        if kind == "result":
            assert back.ground_state is None
            for key, series in back.observables().items():
                np.testing.assert_array_equal(series, data[key])
            assert {getattr(s, f.name) for s in back.record.stats for f in fields(StepStats)} == {None}
            text = back.summary()
            assert "n/a" in text and "not converge" not in text
            return
        assert back.record is None
        for f in fields(GroundState):
            if "gs_" + f.name in data:
                np.testing.assert_array_equal(getattr(back.ground_state, f.name), data["gs_" + f.name])
            else:
                assert (kind, f.name, getattr(back.ground_state, f.name)) == ("checkpoint-1.13", "history", None)


def test_a_parallel_file_of_the_earlier_layout_reads_and_resumes(serial_sim, tmp_path):
    """A parallel block written before it held only the ledger and the rank
    tally (it also repeated ``ranks``, ``pattern``, ``machine``, ``use_shm``
    and ``nodes``) reads with its ledger, resumes bitwise, and, stored as
    a row, prints in a sweep's summary."""
    import json

    from repro.store import ResultStore, run_id_for

    serial, _ = serial_sim
    sim = serial.derive(parallel=_parallel_cfg(2, "ring"))
    result = sim.propagate()
    block = {
        **result.parallel.to_dict(),
        "ranks": 2, "pattern": "ring", "machine": "fugaku-arm", "use_shm": True, "nodes": 1,
    }
    old = tmp_path / "old.npz"
    np.savez(
        old,
        result_version=np.int64(1),
        config_json=np.str_(sim.config.to_json()),
        final_phi=result.final_state.phi,
        final_sigma=result.final_state.sigma,
        final_time=np.float64(result.final_state.time),
        parallel_json=np.str_(json.dumps(block, sort_keys=True)),
        **result.observables(),
    )
    info = read_result_npz(old).parallel
    assert info.ledger.to_dict() == result.parallel.ledger.to_dict()
    assert info.fft_rank_transforms == result.parallel.fft_rank_transforms

    resumed = Simulation.resume(old).propagate(n_steps=1)
    cont = sim.propagate(n_steps=1)
    _assert_bitwise(cont.observables(), resumed.observables())
    np.testing.assert_array_equal(cont.final_state.phi, resumed.final_state.phi)

    store = ResultStore(tmp_path / "store")
    rid = run_id_for(sim.config)
    store.runs_dir.mkdir(exist_ok=True)
    (store.runs_dir / f"{rid}.npz").write_bytes(old.read_bytes())
    store.queue.finish_ok(sim.config, n_times=len(result.record.times), parallel=block)
    ensemble = run_ensemble(sim.config, SweepConfig(), workers=1, store=store)
    store.close()
    assert ensemble.runs[0].run.parallel == block
    assert f"  run0 (base): {info.ledger.describe()}" in ensemble.summary().splitlines()


def test_summary_carries_parallel_block(serial_sim):
    serial, serial_result = serial_sim
    result = serial.derive(parallel=_parallel_cfg(4, "ring")).propagate()
    text = result.summary()
    assert "parallel: ranks=4 pattern=ring" in text
    assert "comm (modeled s)" in text
    assert "parallel" not in serial_result.summary()


def test_checkpoint_resume_continues_ledger_and_layout(serial_sim, tmp_path):
    serial, serial_result = serial_sim
    sim = serial.derive(parallel=_parallel_cfg(2, "ring"))
    sim.propagate()
    saved_total = sim.parallel.run_info().ledger.total_seconds()
    assert saved_total > 0.0
    ckpt = sim.save_checkpoint(tmp_path / "ck.npz")

    resumed = Simulation.resume(ckpt)
    assert resumed.config.parallel == sim.config.parallel  # layout survives
    # the checkpointed tally seeds the resumed context ...
    assert resumed.parallel.run_info().ledger.total_seconds() == pytest.approx(saved_total)
    assert resumed.parallel.session_ledger().total_seconds() == 0.0
    result = resumed.propagate(n_steps=1)
    # ... and keeps growing from there
    assert resumed.parallel.run_info().ledger.total_seconds() > saved_total
    assert result.parallel is not None
    # the resumed step is bitwise the uninterrupted serial continuation
    cont = Simulation(
        serial.config, ground_state=serial.ground_state(),
        state=serial_result.final_state.copy(),
    ).propagate(n_steps=1)
    _assert_bitwise(cont.observables(), result.observables())


# ---------------- sweeps over parallel axes ---------------------------------------
def test_sweep_over_patterns_yields_per_pattern_ledgers(serial_sim):
    serial, serial_result = serial_sim
    base = SimulationConfig.from_dict(
        {**CFG, "parallel": _parallel_cfg(4, "ring")}
    )
    sweep = SweepConfig.from_dict(
        {"axes": {"parallel.pattern": ["bcast", "ring", "async-ring"]}}
    )
    result = run_ensemble(base, sweep, workers=1)
    assert [r.status for r in result.runs] == ["ok"] * 3
    # patterns share one SCF group and land bitwise on the serial trajectory
    dip = result.stacked("dipole")
    for i in range(3):
        np.testing.assert_array_equal(dip[i], serial_result.observables()["dipole"])
    ledgers = result.parallel_ledgers()
    assert len(ledgers) == 3
    by_pattern = {
        r.overrides["parallel.pattern"]: CostLedger.from_dict(r.parallel["ledger"])
        for r in result.runs
    }
    assert by_pattern["bcast"].bytes_by_category()["bcast"] > 0.0
    assert by_pattern["ring"].seconds_by_category()["sendrecv"] > 0.0
    text = result.summary()
    assert "comm (s)" in text and "per-run communication" in text
    for r in result.runs:
        assert f"  run{r.index} {r.label()}: {r.ledger.describe()}" in text.splitlines()
    # every run reports its FFT tally under the parallel path too
    coverage = result.fft_totals()
    assert coverage.complete
    for r in result.runs:
        assert r.config.parallel.ranks == 4
        assert set(r.parallel) == {"ledger", "fft_rank_transforms"}


def test_sweep_parallel_npz_round_trips_ledgers(serial_sim, tmp_path):
    """Ledgers survive the store's run files: a second call restores them."""
    base = SimulationConfig.from_dict({**CFG, "parallel": _parallel_cfg(2, "bcast")})
    base = base.replace(propagation={"n_steps": 0})
    sweep = SweepConfig.from_dict({"axes": {"parallel.ranks": [2, 3]}})
    store = tmp_path / "study"
    result = run_ensemble(base, sweep, workers=1, store=store)
    messages = []
    loaded = run_ensemble(base, sweep, workers=1, store=store, progress=messages.append)
    assert sum("restored from store" in m for m in messages) == 2
    for got, ref in zip(loaded.runs, result.runs):
        assert got.parallel == ref.parallel
    assert len(loaded.parallel_ledgers()) == 2


# ---------------- measured Table I ------------------------------------------------
def test_measured_table1_formats_with_model_renderer(pattern_ledgers):
    from repro.perf.experiments import format_table1, measured_table1, modeled_fft_seconds

    fft = FFTTally(transforms=64, calls=1, points=64 * 12**3, by_shape={"12x12x12": 64})
    table = measured_table1(
        pattern_ledgers, "fugaku-arm", natom=8, nranks=4,
        fft={p: fft for p in pattern_ledgers},
    )
    assert set(table["rows"]) == {"bcast", "ring", "async-ring"}
    for row in table["rows"].values():
        assert 0.0 < row["comm_ratio"] <= 1.0
        assert row["total_comm"] > 0.0
    text = format_table1(table)
    assert "bcast" in text and "async-ring" in text and "fugaku-arm" in text
    # without a tally, communication is measured against itself
    with recording() as rec:
        charge("bcast", 100.0, 1.5)
        charge("sendrecv", 50.0, 0.5)
    ledger = CostLedger(rec.snapshot())
    row = measured_table1({"ring": ledger}, "fugaku-arm", natom=8, nranks=4)["rows"]["ring"]
    assert row["bcast"] == pytest.approx(1.5)
    assert row["total_comm"] == pytest.approx(2.0)
    assert row["comm_ratio"] == 1.0
    assert modeled_fft_seconds(fft, "fugaku-arm", nranks=4) == pytest.approx(
        modeled_fft_seconds(fft, "fugaku-arm", nranks=1) / 4.0
    )
