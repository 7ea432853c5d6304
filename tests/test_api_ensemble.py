"""Ensemble sweep engine: expansion, execution, collection, CLI.

The execution tests run the shipped ``examples/configs/sweep_absorption``
sweep once on the calling process alone (module fixture) and compare
spawned workers — via the real CLI and via the API — against it: same machine,
same ground state, the trajectories must agree to round-off wherever
the runs execute (the acceptance bar for the engine).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    ConfigError,
    EnsembleResult,
    RunRecord,
    SimulationConfig,
    SweepConfig,
    apply_overrides,
    expand_sweep,
    load_sweep_file,
    run_ensemble,
)
from repro.api.cli import main as cli_main

SWEEP_TOML = Path(__file__).parent.parent / "examples" / "configs" / "sweep_absorption.toml"


# ---------------- SweepConfig parsing ----------------------------------------


def test_sweep_defaults_and_n_runs():
    sweep = SweepConfig.from_dict({})
    assert sweep.axes == {} and sweep.n_runs == 1
    sweep = SweepConfig.from_dict(
        {"axes": {"field.params.kick": [1, 2, 3], "propagation.propagator": ["ptim", "ptcn"]}}
    )
    assert sweep.n_runs == 6
    assert SweepConfig.from_dict({"axes": {"scf.seed": [1, 2]}, "mode": "zip"}).n_runs == 2


@pytest.mark.parametrize(
    "data,match",
    [
        ({"mode": "cartesian"}, "sweep.mode"),
        ({"workers": 0}, "sweep.workers"),
        ({"axes": {"ecut": [1]}}, "dotted config path"),
        ({"axes": {"system.ecut": []}}, "non-empty list"),
        ({"axes": {"system.ecut": 2.0}}, "non-empty list"),
        ({"mode": "zip", "axes": {"scf.seed": [1, 2], "system.ecut": [3.0]}}, "equal-length"),
        ({"bogus": 1}, "unknown key"),
        ({"workers": 2.5}, "sweep.workers"),
        ({"workers": True}, "sweep.workers"),
        # keys of earlier releases are refused by name
        ({"scheduler": "thread"}, "unknown key.*sweep.scheduler"),
        ({"output": "x.npz"}, r"sweep\.output.*store"),
    ],
)
def test_sweep_config_rejects_bad_input(data, match):
    with pytest.raises(ConfigError, match=match):
        SweepConfig.from_dict(data)


def test_sweep_config_round_trips():
    sweep = SweepConfig.from_dict(
        {"axes": {"field.params.kick": [1e-3, 2e-3]}, "workers": 3, "store": "study"}
    )
    assert SweepConfig.from_dict(sweep.to_dict()) == sweep


# ---------------- overrides + expansion --------------------------------------


def test_apply_overrides_reaches_fields_and_params():
    base = SimulationConfig.from_dict({})
    cfg = apply_overrides(
        base,
        {
            "system.ecut": 2.5,
            "field.params.kick": 5e-3,
            "propagation.options.density_tol": 1e-9,
        },
    )
    assert cfg.system.ecut == 2.5
    assert cfg.field.params["kick"] == 5e-3
    assert cfg.propagation.options["density_tol"] == 1e-9
    assert base.system.ecut == 3.0  # base untouched


def test_apply_overrides_rejects_unknown_and_malformed_paths():
    base = SimulationConfig.from_dict({})
    with pytest.raises(ConfigError, match="field.amplitude"):
        apply_overrides(base, {"field.amplitude": [1]})  # must be field.params.*
    with pytest.raises(ConfigError, match="dotted config path"):
        apply_overrides(base, {"ecut": 2.0})
    with pytest.raises(ConfigError, match="non-table"):
        apply_overrides(base, {"system.ecut.deeper": 1})


def test_expand_sweep_grid_order_and_zip():
    base = SimulationConfig.from_dict({})
    sweep = SweepConfig.from_dict(
        {"axes": {"scf.seed": [1, 2], "system.ecut": [2.0, 2.5, 3.0]}}
    )
    variants = expand_sweep(base, sweep)
    assert len(variants) == 6
    assert [v.index for v in variants] == list(range(6))
    # last axis fastest, like nested loops in declaration order
    assert [(v.config.scf.seed, v.config.system.ecut) for v in variants] == [
        (1, 2.0), (1, 2.5), (1, 3.0), (2, 2.0), (2, 2.5), (2, 3.0),
    ]
    zipped = expand_sweep(
        base,
        SweepConfig.from_dict(
            {"mode": "zip", "axes": {"scf.seed": [1, 2], "system.ecut": [2.0, 2.5]}}
        ),
    )
    assert [(v.config.scf.seed, v.config.system.ecut) for v in zipped] == [(1, 2.0), (2, 2.5)]
    assert expand_sweep(base, SweepConfig.from_dict({}))[0].config == base


def test_load_sweep_file_roundtrip(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "system": {"ecut": 2.0},
        "sweep": {"axes": {"scf.seed": [1, 2]}, "workers": 2},
    }))
    base, sweep = load_sweep_file(path)
    assert base.system.ecut == 2.0
    assert sweep.workers == 2 and sweep.n_runs == 2
    # a plain config file yields the single-run sweep
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps({"system": {"ecut": 2.0}}))
    _, sweep0 = load_sweep_file(plain)
    assert sweep0.n_runs == 1


# ---------------- EnsembleResult (synthetic, no SCF) -------------------------


def _fake_result(statuses=("ok", "ok")):
    cfg = SimulationConfig.from_dict({})
    runs = []
    from repro.backend import FFTCounters

    for i, status in enumerate(statuses):
        arrays = {}
        fft = None
        if status == "ok":
            arrays = {
                "times": np.linspace(0.0, 1.0, 8),
                "dipole": np.ones((8, 3)) * (i + 1),
                "sigma_0_2": np.full(8, 1j * (i + 1), dtype=complex),
            }
            fft = FFTCounters()
            fft.record((4, 4, 4), 2 * (i + 1))
        runs.append(
            RunRecord(
                index=i,
                overrides={"scf.seed": i},
                config=apply_overrides(cfg, {"scf.seed": i}),
                status=status,
                error=None if status == "ok" else "ValueError: boom",
                elapsed=0.5,
                arrays=arrays,
                fft=fft,
            )
        )
    return EnsembleResult(cfg, SweepConfig.from_dict({"axes": {"scf.seed": [0, 1]}}), runs)


def test_stacked_and_failures():
    result = _fake_result(("ok", "error"))
    assert len(result.ok) == 1 and len(result.failures) == 1
    assert result.stacked("dipole").shape == (1, 8, 3)
    with pytest.raises(RuntimeError, match="1/2 ensemble runs failed"):
        result.raise_on_failure()
    with pytest.raises(KeyError, match="missing from run"):
        result.stacked("nope")
    all_bad = _fake_result(("error", "error"))
    with pytest.raises(ValueError, match="no successful runs"):
        all_bad.stacked("dipole")


def test_stacked_rejects_ragged_shapes():
    result = _fake_result(("ok", "ok"))
    result.runs[1].arrays["dipole"] = np.ones((5, 3))
    with pytest.raises(ValueError, match="disagree on shape"):
        result.stacked("dipole")


def test_summary_lists_every_run():
    result = _fake_result(("ok", "error"))
    text = result.summary()
    assert "1/2 runs ok" in text
    assert "boom" in text
    assert len(text.splitlines()) == 2 + len(result.runs)


# ---------------- execution (one shared SCF wherever the runs execute) ------


@pytest.fixture(scope="module")
def serial_run():
    """The shipped absorption sweep executed serially — the reference."""
    base, sweep = load_sweep_file(SWEEP_TOML)
    messages = []
    result = run_ensemble(base, sweep, workers=1, progress=messages.append)
    return result, messages


def test_serial_run_all_ok_and_shares_ground_state(serial_run):
    result, messages = serial_run
    assert [r.status for r in result.runs] == ["ok"] * 4
    solves = [m for m in messages if m.startswith("converging ground state")]
    assert len(solves) == 1  # one (system, scf, backend) group -> one SCF for 4 runs
    assert result.stacked("dipole").shape == (4, 5, 3)


def test_serial_runs_carry_fft_tallies(serial_run):
    """Every record owns its propagation FFT tally; totals merge."""
    result, _ = serial_run
    for r in result.runs:
        assert r.fft is not None
        assert r.fft.transforms > 0 and r.fft.calls > 0
        assert set(r.fft.by_shape)  # grid shapes recorded
    coverage = result.fft_totals()
    assert coverage.complete and coverage.n_reporting == len(result.runs)
    total = coverage.totals
    assert total.transforms == sum(r.fft.transforms for r in result.runs)
    text = result.summary()
    assert f"FFTs: {total.transforms} transforms in {total.calls} calls" in text
    assert "partial" not in text  # full coverage is not flagged


def test_serial_matches_independent_simulations(serial_run):
    """The engine must reproduce a hand-written loop exactly."""
    from repro.api import Simulation

    result, _ = serial_run
    run = result.runs[2]  # kick=2e-3, ptim — arbitrary non-base grid point
    solo = Simulation(run.config).run().observables()
    for key in ("times", "dipole", "particle_number"):
        np.testing.assert_array_equal(solo[key], run.arrays[key])


def test_dipole_spectra_shapes_and_kick_normalization(serial_run):
    result, _ = serial_run
    omega, strengths = result.dipole_spectra(damping=0.01)
    assert strengths.shape == (4, len(omega))


def test_cli_sweep_process_pool_matches_serial(serial_run, tmp_path, capsys):
    """Acceptance path: `repro sweep ... --workers 2 --store` through the
    real CLI, read back by re-running against the store, stacked spectra
    identical to the serial runs."""
    serial_result, _ = serial_run
    store = tmp_path / "study"
    rc = cli_main(["sweep", str(SWEEP_TOML), "--workers", "2", "--store", str(store)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "4/4 runs ok" in captured

    base, sweep = load_sweep_file(SWEEP_TOML)
    messages = []
    loaded = run_ensemble(base, sweep, store=store, workers=1, progress=messages.append)
    assert sum("restored from store" in m for m in messages) == 4
    assert len(messages) == 4
    assert [r.status for r in loaded.runs] == ["ok"] * 4
    assert [r.overrides for r in loaded.runs] == [r.overrides for r in serial_result.runs]
    # worker processes' FFT tallies come back with the results (through
    # the store row) instead of dying with the worker's engine — and match
    # the in-process tallies exactly
    for got, ref in zip(loaded.runs, serial_result.runs):
        assert got.fft is not None
        assert got.fft == ref.fft
    np.testing.assert_allclose(
        loaded.stacked("dipole"), serial_result.stacked("dipole"), rtol=0.0, atol=1e-12
    )
    omega_p, s_p = loaded.dipole_spectra(damping=0.01)
    omega_s, s_s = serial_result.dipole_spectra(damping=0.01)
    np.testing.assert_array_equal(omega_p, omega_s)
    np.testing.assert_allclose(s_p, s_s, rtol=0.0, atol=1e-12)


def test_every_entry_point_matches_in_process_run(serial_run, tmp_path, monkeypatch):
    """One engine: the same four configs through ``run_ensemble`` on the
    caller alone and beside a spawned worker (without a store), and on a
    spawned worker with a store, give the reference sweep's observables
    bit for bit and its per-run FFT tallies exactly, converge one ground
    state per group, and leave no temporary store behind.  The served
    path's parity is ``test_serve.py``'s end-to-end run."""
    import tempfile

    from repro.store import ResultStore

    reference, _ = serial_run
    base, sweep = load_sweep_file(SWEEP_TOML)
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))

    alone = run_ensemble(base, sweep, workers=1)
    unstored = run_ensemble(base, sweep, workers=2)
    assert list(scratch.iterdir()) == []  # the temporary stores are gone
    stored = run_ensemble(base, sweep, workers=2, store=tmp_path / "study")

    for ensemble in (alone, unstored, stored):
        assert [r.status for r in ensemble.runs] == ["ok"] * 4
        assert [r.overrides for r in ensemble.runs] == [r.overrides for r in reference.runs]
        for i, (run, ref) in enumerate(zip(ensemble.runs, reference.runs)):
            assert set(run.arrays) == set(ref.arrays)
            for key, expected in ref.arrays.items():
                # energy is NaN when not recorded; everything else bit for bit
                assert np.array_equal(run.arrays[key], expected, equal_nan=True), (i, key)
            assert run.fft == ref.fft, i

    store = ResultStore(tmp_path / "study", create=False)
    assert len(store.blobs.ground_state_addresses()) == 1
    # the parent labels the row, the worker finishes it: the label survives
    assert sorted(str(r.overrides) for r in store.query(status="ok")) == sorted(
        str(r.overrides) for r in reference.runs
    )
    store.close()


def test_duplicate_grid_points_run_once(tmp_path, monkeypatch):
    """Two grid points with one config hash are one run: the kernel is
    called once per distinct hash and every record sharing it is filled."""
    import repro.serve.worker as worker_mod

    base, _ = load_sweep_file(SWEEP_TOML)
    base = base.replace(propagation={"n_steps": 1})
    sweep = SweepConfig.from_dict({"axes": {"field.params.kick": [1e-3, 1e-3, 2e-3]}})
    calls = []
    real_run_one = worker_mod.run_one

    def counting_run_one(sim, *args, **kwargs):
        calls.append(sim.config.field.params["kick"])
        return real_run_one(sim, *args, **kwargs)

    monkeypatch.setattr(worker_mod, "run_one", counting_run_one)
    result = run_ensemble(base, sweep, store=tmp_path / "study")
    assert calls == [1e-3, 2e-3]
    assert [r.status for r in result.runs] == ["ok"] * 3
    for key, arr in result.runs[0].arrays.items():
        assert np.array_equal(result.runs[1].arrays[key], arr, equal_nan=True), key
    assert result.runs[1].fft == result.runs[0].fft

    from repro.store import ResultStore

    store = ResultStore(tmp_path / "study", create=False)
    assert len(store.query(status="ok")) == 2  # one row per distinct hash
    store.close()


def test_fft_totals_flags_partial_coverage():
    result = _fake_result(("ok", "ok"))
    result.runs[1].fft = None  # e.g. an uncounted backend on one variant
    coverage = result.fft_totals()
    assert not coverage.complete
    assert (coverage.n_reporting, coverage.n_runs) == (1, 2)
    assert coverage.totals.transforms == result.runs[0].fft.transforms
    assert "partial: 1/2 runs reporting" in result.summary()


def test_per_run_failures_are_captured_not_fatal():
    base, _ = load_sweep_file(SWEEP_TOML)
    base = base.replace(propagation={"n_steps": 1})
    sweep = SweepConfig.from_dict(
        # the bad name only surfaces when the run builds its propagator
        {"axes": {"propagation.propagator": ["ptim", "warp-drive"]}}
    )
    result = run_ensemble(base, sweep)
    assert [r.status for r in result.runs] == ["ok", "error"]
    assert "warp-drive" in result.failures[0].error
    assert result.stacked("dipole").shape == (1, 2, 3)  # the good run survived


def test_ground_state_failure_marks_whole_group_not_sweep():
    base, _ = load_sweep_file(SWEEP_TOML)
    sweep = SweepConfig.from_dict({"axes": {"system.cell": ["unobtainium"]}})
    result = run_ensemble(base, sweep)  # must not raise
    assert [r.status for r in result.runs] == ["error"]
    assert "unobtainium" in result.failures[0].error


def test_dipole_spectra_rejects_missing_and_zero_kick():
    missing = _fake_result(("ok",))  # field kind "zero": no kick param at all
    with pytest.raises(ValueError, match="without a 'kick' param"):
        missing.dipole_spectra()
    zero = _fake_result(("ok",))
    zero.runs[0].config = apply_overrides(
        zero.runs[0].config, {"field.kind": "static_kick", "field.params.kick": 0.0}
    )
    with pytest.raises(ValueError, match="kick == 0"):
        zero.dipole_spectra()


def test_cli_run_refuses_sweep_config(capsys, tmp_path):
    """`repro validate` accepts sweep files, so `repro run` must point at
    `repro sweep` instead of calling the [sweep] section a typo."""
    rc = cli_main(["run", str(SWEEP_TOML)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "repro sweep" in err
    # a single-point axis must be refused too, not silently dropped
    single = tmp_path / "single.json"
    single.write_text(json.dumps({"sweep": {"axes": {"system.ecut": [2.5]}}}))
    rc = cli_main(["run", str(single)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "repro sweep" in err


def test_sweep_axes_coerce_numpy_values():
    """np.arange axes must not poison JSON serialization after the runs."""
    sweep = SweepConfig.from_dict(
        {"axes": {"propagation.n_steps": list(np.arange(2, 5)),
                  "system.ecut": np.linspace(2.0, 2.5, 2)}}
    )
    for values in sweep.axes.values():
        assert all(type(v) in (int, float) for v in values)
    base = SimulationConfig.from_dict({})
    for variant in expand_sweep(base, sweep):
        json.loads(variant.config.to_json())  # must not raise
    json.dumps(sweep.to_dict())


def test_cli_sweep_dry_run(capsys):
    rc = cli_main(["sweep", str(SWEEP_TOML), "--dry-run"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "4 runs" in out
    lines = [l for l in out.splitlines() if l.strip().startswith(tuple("0123"))]
    assert len(lines) == 4
    assert "propagator='ptcn'" in out


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_sweep_dry_run_refuses_bad_workers(workers, capsys):
    """``--workers`` goes through ``SweepConfig``'s validation before the
    banner, so a dry run refuses it exactly as a real run does."""
    rc = cli_main(["sweep", str(SWEEP_TOML), "--dry-run", "--workers", workers])
    captured = capsys.readouterr()
    assert rc == 2
    assert "sweep.workers" in captured.err
    assert "spawned" not in captured.out


def test_cli_validate_refuses_removed_sweep_output(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('[sweep]\noutput = "x.npz"\n')
    assert cli_main(["validate", str(bad)]) == 2
    assert "sweep.output" in capsys.readouterr().err


def test_cli_validate_reports_sweep(capsys):
    rc = cli_main(["validate", str(SWEEP_TOML)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "sweep: 4 runs" in out


def test_cli_validate_catches_bad_sweep_component(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "sweep": {"axes": {"propagation.propagator": ["ptim", "warp-drive"]}},
    }))
    rc = cli_main(["validate", str(path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "warp-drive" in err
