"""Simulation facade: laziness, checkpoint/resume bitwise identity, results IO.

A single module-scoped LDA ground state is shared through
``Simulation.derive`` (which carries caches across config tweaks), so the
expensive SCF runs once.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.api import ConfigError, Simulation, SimulationConfig, SimulationResult

CFG = {
    "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "lda"},
    "scf": {"nbands": 20, "density_tol": 1e-5, "max_scf": 40},
    "field": {"kind": "gaussian_pulse",
              "params": {"amplitude": 0.02, "center_fs": 0.05, "fwhm_fs": 0.08}},
    "propagation": {"propagator": "ptim", "dt_as": 50.0, "n_steps": 3,
                    "track_sigma": [[0, 2]], "options": {"density_tol": 1e-7}},
}

OBSERVABLE_KEYS = ("times", "dipole", "energy", "particle_number", "field", "sigma_0_2")


@pytest.fixture(scope="module")
def base_sim():
    sim = Simulation.from_config(CFG)
    sim.ground_state()
    return sim


def _fresh(base_sim) -> Simulation:
    """A new simulation sharing the converged ground state, fresh state."""
    return base_sim.derive()


# ---------------- laziness / caching ------------------------------------------
def test_components_cached(base_sim):
    assert base_sim.grid is base_sim.grid
    assert base_sim.hamiltonian is base_sim.hamiltonian
    assert base_sim.ground_state() is base_sim.ground_state()


def test_ground_state_converged(base_sim):
    gs = base_sim.ground_state()
    assert gs.converged
    assert gs.orbitals.shape[0] == 20


def test_derive_shares_and_isolates(base_sim):
    same = base_sim.derive(propagation={"propagator": "rk4", "dt_as": 1.0, "options": {}})
    assert same._gs is base_sim._gs  # unchanged system+scf: SCF shared
    assert same._grid is base_sim._grid
    other = base_sim.derive(system={"ecut": 2.5})
    assert other._gs is None  # changed system: must re-converge
    assert other._grid is None


def test_from_file_builds_the_shipped_quickstart():
    """The package docstring's quickstart: a config file to a lazy
    simulation, nothing converged until asked."""
    path = Path(__file__).resolve().parent.parent / "examples" / "configs" / "quickstart.toml"
    sim = Simulation.from_file(path)
    assert sim.config == SimulationConfig.from_file(path)
    assert sim.config.propagation.propagator == "ptim_ace"
    assert sim.functional.is_hybrid and sim.cell.natom == 8


def test_unknown_component_surfaces_at_build():
    """An unknown name is refused when the config is parsed, before any
    component is built."""
    with pytest.raises(ConfigError, match=r"^system\.functional must be one of .*'hse'.*, got 'b3lyp'$"):
        Simulation.from_config({**CFG, "system": {**CFG["system"], "functional": "b3lyp"}})


def test_propagate_argument_validation(base_sim):
    sim = _fresh(base_sim)
    with pytest.raises(ConfigError, match="n_steps"):
        sim.propagate(n_steps=-1)
    with pytest.raises(ConfigError, match="dt_as"):
        sim.propagate(dt_as=0.0)


def test_propagate_window_obeys_the_propagation_declarations(base_sim):
    """Each override is checked as ``propagation.<key>`` before a step."""
    sim = _fresh(base_sim)
    with pytest.raises(ConfigError, match=r"propagation\.observe_every"):
        sim.propagate(observe_every=0)
    with pytest.raises(ConfigError, match=r"propagation\.n_steps"):
        sim.propagate(n_steps=2.0)
    assert sim.state.time == 0.0


def test_a_simulation_past_t0_is_not_stored(base_sim, tmp_path):
    """A stored run is its config's trajectory from t = 0: after
    ``propagate()`` the simulation's ``run(store=)`` is refused, naming t,
    before the store directory is made."""
    sim = _fresh(base_sim)
    sim.propagate(n_steps=1)
    store = tmp_path / "store"
    with pytest.raises(ConfigError, match=re.escape(f"t = {sim.state.time!r}")):
        sim.run(store=store)
    assert not store.exists()


# ---------------- checkpoint / resume ------------------------------------------
@pytest.fixture(scope="module")
def trajectory(base_sim, tmp_path_factory):
    """Uninterrupted 3-step run vs 2 steps + checkpoint + resumed 1 step."""
    tmp = tmp_path_factory.mktemp("ckpt")

    straight = _fresh(base_sim).propagate()  # configured 3 steps

    interrupted = _fresh(base_sim)
    interrupted.propagate(n_steps=2)
    ckpt = interrupted.save_checkpoint(tmp / "mid.npz")

    resumed_sim = Simulation.resume(ckpt)
    resumed = resumed_sim.propagate(n_steps=1)
    return straight, resumed, resumed_sim


def test_resume_restores_config_and_ground_state(base_sim, trajectory):
    straight, resumed, resumed_sim = trajectory
    assert resumed_sim.config == base_sim.config
    gs = resumed_sim._gs
    assert gs is not None  # no SCF re-run on resume
    assert gs.total_energy == base_sim.ground_state().total_energy
    np.testing.assert_array_equal(gs.orbitals, base_sim.ground_state().orbitals)


def test_resume_continues_time_axis(trajectory):
    straight, resumed, _ = trajectory
    a, c = straight.observables(), resumed.observables()
    # resumed record: [t2 (initial observation), t3]
    assert c["times"][0] == a["times"][2]
    assert c["times"][-1] == a["times"][-1]


@pytest.mark.parametrize("key", OBSERVABLE_KEYS)
def test_resume_observables_bitwise_identical(trajectory, key):
    """The paper-grade restart guarantee: resuming mid-trajectory and
    stepping once gives *bitwise* the observables of the uninterrupted run."""
    straight, resumed, _ = trajectory
    a, c = straight.observables()[key], resumed.observables()[key]
    np.testing.assert_array_equal(a[-1], c[-1])
    np.testing.assert_array_equal(a[-2], c[-2])


def test_resume_final_state_bitwise_identical(trajectory):
    straight, resumed, _ = trajectory
    np.testing.assert_array_equal(straight.final_state.phi, resumed.final_state.phi)
    np.testing.assert_array_equal(straight.final_state.sigma, resumed.final_state.sigma)
    assert straight.final_state.time == resumed.final_state.time


def test_state_advances_with_propagation(base_sim, trajectory):
    straight, _, _ = trajectory
    dt_au = straight.record.times[1] - straight.record.times[0]
    assert straight.final_state.time == pytest.approx(3 * dt_au)


# ---------------- result files --------------------------------------------------
def test_result_npz_round_trip(trajectory, tmp_path):
    straight, _, _ = trajectory
    path = straight.save_npz(tmp_path / "run.npz")
    config, arrays = SimulationResult.load_npz(path)
    assert config == straight.config
    for key in OBSERVABLE_KEYS:
        np.testing.assert_array_equal(arrays[key], straight.observables()[key])
    np.testing.assert_array_equal(arrays["final_phi"], straight.final_state.phi)


def test_result_summary_mentions_all_times(trajectory):
    straight, _, _ = trajectory
    text = straight.summary()
    assert len(text.splitlines()) == 1 + len(straight.record.times)


def test_resume_refuses_an_npz_that_is_not_a_result_file(trajectory, tmp_path):
    from repro.api import ResultError

    junk = tmp_path / "junk.npz"
    np.savez(junk, a=np.zeros(3))
    with pytest.raises(ResultError, match="not a repro result file .missing config_json"):
        Simulation.resume(junk)
    stateless = tmp_path / "stateless.npz"
    np.savez(stateless, config_json=np.str_(trajectory[0].config.to_json()))
    with pytest.raises(ResultError, match="not a repro result file .no final state"):
        Simulation.resume(stateless)


# ---------------- round-trip dtype + config-mismatch guards --------------------
EXPECTED_DTYPES = {
    "times": np.float64,
    "dipole": np.float64,
    "energy": np.float64,
    "particle_number": np.float64,
    "field": np.float64,
    "sigma_0_2": np.complex128,
    "final_phi": np.complex128,
    "final_sigma": np.complex128,
    "final_time": np.float64,
}


def test_result_round_trip_preserves_every_dtype(trajectory, tmp_path):
    """Complex observables must come back complex — for every stored key."""
    straight, _, _ = trajectory
    _, arrays = SimulationResult.load_npz(straight.save_npz(tmp_path / "dt.npz"))
    assert set(EXPECTED_DTYPES) == set(arrays)
    for key, dtype in EXPECTED_DTYPES.items():
        assert arrays[key].dtype == np.dtype(dtype), f"{key} lost its dtype"


def test_empty_sigma_series_stays_complex():
    """Regression: an empty tracked series must not decay to float64."""
    from repro.rt.propagator import PropagationRecord

    record = PropagationRecord(sigma_samples={(0, 1): []})
    assert record.as_arrays()["sigma_0_1"].dtype == np.complex128


def test_result_load_rejects_mismatched_config(trajectory, tmp_path):
    straight, _, _ = trajectory
    path = straight.save_npz(tmp_path / "mm.npz")
    other = straight.config.replace(propagation={"n_steps": 77})
    with pytest.raises(ConfigError, match=r"propagation\.n_steps"):
        SimulationResult.load_npz(path, expected_config=other)
    config, _ = SimulationResult.load_npz(path, expected_config=straight.config)
    assert config == straight.config


def test_checkpoint_load_rejects_mismatched_config(trajectory, tmp_path):
    from repro.api.simulation import read_result_npz

    _, _, resumed_sim = trajectory
    path = resumed_sim.save_checkpoint(tmp_path / "mm_ck.npz")
    other = resumed_sim.config.replace(system={"ecut": 2.5})
    with pytest.raises(ConfigError, match=r"system\.ecut"):
        read_result_npz(path, expected_config=other)
    ck = read_result_npz(path, expected_config=resumed_sim.config)
    assert ck.config == resumed_sim.config
    assert ck.final_state.phi.dtype == np.complex128
    assert ck.ground_state.orbitals.dtype == np.complex128


def test_checkpoint_is_a_result_file_and_a_result_file_resumes(trajectory, base_sim, tmp_path):
    """One layout: ``load_npz`` reads a checkpoint (state, no observables,
    never a ``gs_*`` key), ``save_npz`` writes no ground state and the keys
    it always wrote in the order it wrote them, and ``resume`` continues
    from either, converging nothing, to the same bits."""
    straight, _, resumed_sim = trajectory
    ckpt = resumed_sim.save_checkpoint(tmp_path / "ck.npz")
    config, arrays = SimulationResult.load_npz(ckpt)
    assert config == resumed_sim.config
    assert sorted(arrays) == ["final_phi", "final_sigma", "final_time"]

    two_steps = _fresh(base_sim).propagate(n_steps=2)
    path = two_steps.save_npz(tmp_path / "two.npz")
    with np.load(path) as data:
        assert data.files == [
            "result_version", "config_json", "final_phi", "final_sigma", "final_time",
            *two_steps.observables(),
        ]
    from_result = Simulation.resume(path)
    assert from_result._gs is None
    third = from_result.propagate(n_steps=1)
    assert from_result._gs is None  # the state is all a step needs
    for key in OBSERVABLE_KEYS:
        np.testing.assert_array_equal(third.observables()[key][-1], straight.observables()[key][-1])
    np.testing.assert_array_equal(third.final_state.phi, straight.final_state.phi)


def test_checkpoint_written_by_1_13_resumes_bitwise(trajectory, base_sim, tmp_path):
    """Reading data is not a tombstone: the <= 1.13 checkpoint layout
    (its own key names, version and ledger block), written here the way
    1.13 wrote it, loads through the one reader."""
    import json

    straight, _, _ = trajectory
    sim = _fresh(base_sim)
    sim.propagate(n_steps=2)
    gs = base_sim.ground_state()
    old = tmp_path / "old_ck.npz"
    np.savez(
        old,
        version=np.int64(1),
        config_json=np.str_(sim.config.to_json()),
        phi=sim.state.phi,
        sigma=sim.state.sigma,
        time=np.float64(sim.state.time),
        parallel_ledger_json=np.str_(json.dumps({"allreduce": {"seconds": 0.5, "nbytes": 64.0, "count": 2}})),
        **gs.to_arrays(prefix="gs_"),
    )
    resumed_sim = Simulation.resume(old)
    assert resumed_sim._parallel_ledger_seed.total_seconds() == 0.5
    np.testing.assert_array_equal(resumed_sim._gs.orbitals, gs.orbitals)
    _, arrays = SimulationResult.load_npz(old)
    assert sorted(arrays) == ["final_phi", "final_sigma", "final_time"]
    resumed = resumed_sim.propagate(n_steps=1)
    for key in OBSERVABLE_KEYS:
        np.testing.assert_array_equal(resumed.observables()[key][-1], straight.observables()[key][-1])
    np.testing.assert_array_equal(resumed.final_state.phi, straight.final_state.phi)
    np.testing.assert_array_equal(resumed.final_state.sigma, straight.final_state.sigma)
