"""CLI: ``python -m repro`` subcommands, including a real subprocess run.

The subprocess smoke test uses a deliberately tiny/loose config — it
exercises the full config → SCF → propagate → save path, not physics.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import SimulationResult
from repro.api.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

TINY_TOML = """
[system]
cell = "silicon_cubic"
ecut = 2.0
functional = "lda"

[scf]
nbands = 20
density_tol = 1e-4
max_scf = 15

[field]
kind = "gaussian_pulse"
[field.params]
amplitude = 0.02
center_fs = 0.05
fwhm_fs = 0.08

[propagation]
propagator = "ptim"
dt_as = 50.0
n_steps = 2
[propagation.options]
density_tol = 1e-6
"""


def _cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep * bool(env.get("PYTHONPATH")) + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.toml"
    path.write_text(TINY_TOML)
    return path


def test_cli_run_resume_smoke(tiny_config):
    """`python -m repro run` then `resume` on a tiny config, via subprocess."""
    workdir = tiny_config.parent
    proc = _cli(
        ["run", str(tiny_config), "--output", "out.npz", "--checkpoint", "ck.npz"],
        cwd=workdir,
    )
    assert proc.returncode == 0, proc.stderr
    assert "converged" in proc.stdout
    assert (workdir / "out.npz").exists() and (workdir / "ck.npz").exists()

    config, arrays = SimulationResult.load_npz(workdir / "out.npz")
    assert config.propagation.propagator == "ptim"
    assert len(arrays["times"]) == 3  # initial + 2 steps
    assert np.all(np.isfinite(arrays["energy"]))

    proc = _cli(["resume", "ck.npz", "--steps", "1", "--output", "more.npz"], cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    _, more = SimulationResult.load_npz(workdir / "more.npz")
    # resumed trajectory continues the time axis
    assert more["times"][0] == arrays["times"][-1]
    assert len(more["times"]) == 2

    # the --output file is the same layout minus the ground state, and the
    # state is all a step needs: same continuation, bit for bit
    proc = _cli(["resume", "out.npz", "--steps", "1", "--output", "more2.npz"], cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    assert "resuming at t = " in proc.stdout
    _, more2 = SimulationResult.load_npz(workdir / "more2.npz")
    assert sorted(more2) == sorted(more)
    for key in more:
        np.testing.assert_array_equal(more2[key], more[key])


def test_cli_components(capsys):
    assert main(["components"]) == 0
    out = capsys.readouterr().out
    for line in ("cell:", "functional:", "field:", "propagator:"):
        assert line in out
    assert "ptim_ace" in out


def test_cli_validate_ok(tiny_config, capsys):
    assert main(["validate", str(tiny_config)]) == 0
    out = capsys.readouterr().out
    assert '"propagator": "ptim"' in out


def test_cli_validate_unknown_key(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text("[system]\necutt = 3.0\n")
    assert main(["validate", str(bad)]) == 2
    assert "system.ecutt" in capsys.readouterr().err


def test_cli_validate_unknown_component(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('[propagation]\npropagator = "magic"\n')
    assert main(["validate", str(bad)]) == 2
    assert "unknown propagator" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["max_scf = 0", "typo_tol = 1e-6"])
def test_cli_refuses_propagation_options_before_the_scf(tmp_path, capsys, option):
    """A propagation option that cannot run, or an unknown one, is refused
    by name by `validate`, and by `run` before any ground state is
    converged or stored."""
    key = option.split()[0]
    cfg = tmp_path / "bad.toml"
    cfg.write_text(TINY_TOML + option + "\n")
    assert main(["validate", str(cfg)]) == 2
    assert key in capsys.readouterr().err
    store = tmp_path / "store"
    assert main(["run", str(cfg), "--store", str(store)]) == 2
    out, err = capsys.readouterr()
    assert key in err
    assert "ground state" not in out
    assert not list(store.glob("blobs/ground_states/*.npz"))


@pytest.mark.parametrize("nbands", ["nbands = 20", ""])
def test_cli_run_refuses_untracked_bands_before_the_scf(tmp_path, capsys, nbands):
    """A tracked sigma element past the SCF's band count (given, or the
    default of 20 for 8-atom silicon) is refused by name before any ground
    state is converged or stored, not by an ``IndexError`` after it."""
    cfg = tmp_path / "bad.toml"
    toml = TINY_TOML.replace("nbands = 20\n", nbands + "\n")
    cfg.write_text(toml.replace('propagator = "ptim"', 'propagator = "ptim"\ntrack_sigma = [[0, 20]]'))
    assert main(["validate", str(cfg)]) == 0
    capsys.readouterr()
    store = tmp_path / "store"
    assert main(["run", str(cfg), "--store", str(store)]) == 2
    out, err = capsys.readouterr()
    assert "propagation.track_sigma" in err and "20 bands" in err
    assert "ground state" not in out
    assert not list(store.glob("blobs/ground_states/*.npz"))


def test_cli_missing_file(capsys):
    assert main(["run", "no/such/config.toml"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_perf_report(capsys):
    assert main(["perf", "--machine", "fugaku-arm"]) == 0
    out = capsys.readouterr().out
    assert "Fig 9" in out and "Fig 11" in out and "fugaku-arm" in out


def test_shipped_quickstart_config_validates(capsys):
    cfg = REPO_ROOT / "examples" / "configs" / "quickstart.toml"
    assert main(["validate", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert '"propagator": "ptim_ace"' in out
    cfg2 = REPO_ROOT / "examples" / "configs" / "ci_smoke.toml"
    assert main(["validate", str(cfg2)]) == 0


def test_shipped_parallel_configs_validate(capsys):
    assert main(["validate", str(REPO_ROOT / "examples" / "configs" / "parallel_ring.toml")]) == 0
    out = capsys.readouterr().out
    assert '"pattern": "ring"' in out
    sweep_cfg = REPO_ROOT / "examples" / "configs" / "parallel_pattern_sweep.toml"
    assert main(["validate", str(sweep_cfg)]) == 0
    assert "sweep: 3 runs over parallel.pattern" in capsys.readouterr().out


def test_shipped_serve_config_validates_and_loads(capsys):
    from repro.api import load_serve_file

    cfg = REPO_ROOT / "examples" / "configs" / "serve.toml"
    assert main(["validate", str(cfg)]) == 0
    assert "sweep: 3 runs over field.params.kick" in capsys.readouterr().out
    sim, serve = load_serve_file(cfg)
    assert serve.workers == 2 and serve.store == "runs/service"
    assert sim.system.functional == "lda"


def test_cli_validate_bad_parallel_section(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('[parallel]\npattern = "gossip"\n')
    assert main(["validate", str(bad)]) == 2
    assert "parallel.pattern" in capsys.readouterr().err
    bad.write_text('[parallel]\nmachine = "cray"\n')
    assert main(["validate", str(bad)]) == 2
    assert "parallel.machine" in capsys.readouterr().err


def test_cli_run_parallel_flags_print_breakdown(capsys):
    """`repro run --ranks 2 --pattern bcast` on the shipped distributed
    config: flags override the section and the measured Table-I-style
    breakdown is printed after the observable table."""
    cfg = REPO_ROOT / "examples" / "configs" / "parallel_ring.toml"
    assert main(["run", str(cfg), "--ranks", "2", "--pattern", "bcast", "--steps", "1"]) == 0
    out = capsys.readouterr().out
    assert "parallel: 2 ranks | pattern bcast" in out
    assert "parallel: ranks=2 pattern=bcast" in out  # result summary block
    assert "measured communication breakdown" in out
    assert "total_comm" in out and "bcast" in out


def test_cli_run_store_reuses_completed_run(tmp_path, capsys):
    """Identical `run --store` is idempotent; `--rerun` forces recompute."""
    cfg = tmp_path / "tiny.toml"
    cfg.write_text(TINY_TOML)
    store = tmp_path / "store"
    assert main(["run", str(cfg), "--store", str(store)]) == 0
    first = capsys.readouterr().out
    assert "reused from" not in first
    assert main(["run", str(cfg), "--store", str(store)]) == 0
    second = capsys.readouterr().out
    assert "reused from" in second and "--rerun to recompute" in second
    assert main(["run", str(cfg), "--store", str(store), "--rerun"]) == 0
    third = capsys.readouterr().out
    assert "reused from" not in third
    # a reused run still renders the observable table
    assert "final" in second or "t (" in second or len(second) > 0


def test_cli_run_reports_steps_that_did_not_converge(tmp_path, capsys):
    """A step that stops at its iteration cap is marked in the table and
    counted in a closing line; a run whose steps all converge prints neither."""
    cfg = tmp_path / "capped.toml"
    cfg.write_text(TINY_TOML + "max_scf = 1\n")
    assert main(["run", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = next(i for i, line in enumerate(lines) if "outer/inner" in line)
    table = lines[header + 1 :]
    assert "not converged" not in table[0]  # the initial state is not a step
    assert table[1].endswith("1/1     not converged")
    assert table[2].endswith("1/1     not converged")
    assert table[3].startswith("2 of 2 steps did not converge (worst residual ")

    cfg.write_text(TINY_TOML)
    assert main(["run", str(cfg)]) == 0
    assert "not converge" not in capsys.readouterr().out


def test_cli_results_ls_paging_summary(tmp_path, capsys):
    """--limit/--offset page and the summary line says what was shown."""
    import json as _json

    import numpy as _np

    from repro.api import SimulationConfig
    from repro.rt.propagator import TDState
    from repro.store import ResultStore

    store_dir = tmp_path / "store"
    store = ResultStore.ensure(store_dir)
    base = {
        "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "lda"},
        "scf": {"nbands": 20, "density_tol": 1e-4, "max_scf": 40},
        "field": {"kind": "static_kick", "params": {"kick": 0.001}},
        "propagation": {"propagator": "ptim", "dt_as": 50.0, "n_steps": 2},
    }
    rng = _np.random.default_rng(0)
    for i in range(5):
        data = _json.loads(_json.dumps(base))
        data["field"]["params"]["kick"] = 0.001 * (i + 1)
        arrays = {
            "times": _np.arange(3.0),
            "dipole": rng.normal(size=(3, 3)),
            "energy": rng.normal(size=3),
            "field": rng.normal(size=(3, 3)),
        }
        state = TDState(
            phi=rng.normal(size=(2, 4)) + 0j,
            sigma=_np.zeros((2, 2), dtype=complex),
            time=1.0,
        )
        store.add_run(SimulationConfig.from_dict(data), arrays, state)
    store.close()

    assert main(["results", "ls", str(store_dir)]) == 0
    assert "5 run(s) in" in capsys.readouterr().out
    assert main(["results", "ls", str(store_dir), "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "2 run(s) shown (offset 0) of 5 total" in out
    assert main([
        "results", "ls", str(store_dir), "--limit", "2", "--offset", "4",
    ]) == 0
    assert "1 run(s) shown (offset 4) of 5 total" in capsys.readouterr().out
