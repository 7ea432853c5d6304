"""CLI: ``python -m repro`` subcommands, including a real subprocess run.

The subprocess smoke test uses a deliberately tiny/loose config — it
exercises the full config → SCF → propagate → save path, not physics.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.api import SimulationConfig, SimulationResult
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


def _split(out):
    """``(span, seconds)`` rows of the measured split ``out`` prints, root
    first; ``[]`` when it prints none."""
    lines = out.splitlines()
    at = next((i for i, line in enumerate(lines) if line.startswith("where the seconds went")), None)
    if at is None:
        return []
    rows = []
    for line in lines[at + 2:]:
        m = re.fullmatch(r"(\S+) +\d* +(\d+\.\d{4}) +\d+\.\d%", line)
        if m is None:
            break
        rows.append((m.group(1), float(m.group(2))))
    return rows


def _assert_split_sums_to_its_root(out):
    rows = _split(out)
    (root, total), *below = rows
    assert root == "api.run" and below[-1][0] == "unattributed"
    assert {"rt.step", "backend.fft"} <= {name for name, _ in below}
    # each row is printed to 1e-4 s
    assert sum(seconds for _, seconds in below) == pytest.approx(total, abs=5e-5 * len(rows))


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
    _assert_split_sums_to_its_root(proc.stdout)
    assert "scf.run_scf" in dict(_split(proc.stdout))

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
    _assert_split_sums_to_its_root(proc.stdout)
    assert "scf.run_scf" not in dict(_split(proc.stdout))
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
    err = capsys.readouterr().err
    assert "propagation.propagator must be one of " in err and "got 'magic'" in err


@pytest.mark.parametrize(
    "option", ["max_scf = 0", "typo_tol = 1e-6", "mix_beta = 0", 'fock_mode = "dense-tripleloop"']
)
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


def test_cli_validate_refuses_a_string_tolerance(tmp_path, capsys):
    """A quoted number is refused by its dotted key, exit 2, not a traceback."""
    cfg = tmp_path / "bad.toml"
    cfg.write_text('[propagation.options]\ndensity_tol = "1e-6"\n')
    assert main(["validate", str(cfg)]) == 2
    assert "propagation.options.density_tol" in capsys.readouterr().err


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


def test_cli_run_names_its_engine_and_the_measured_split(tiny_config, capsys):
    """``--fft-workers`` reaches the engine: the tally line names its
    thread count; the split opens at the root span and names the step's
    fixed-point update."""
    assert main(["run", str(tiny_config), "--fft-workers", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.endswith("workers=2) + counters)") for line in lines)
    assert any(line.startswith("api.run ") for line in lines)
    assert any(line.startswith("rt.fixed_point_update ") for line in lines)


def test_cli_missing_file(capsys):
    assert main(["run", "no/such/config.toml"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_perf_report(capsys):
    assert main(["perf", "--machine", "fugaku-arm"]) == 0
    out = capsys.readouterr().out
    assert "Fig 9" in out and "Fig 11" in out and "fugaku-arm" in out


def test_cli_perf_prints_every_machine_of_the_table(capsys):
    """With no ``--machine``, ``repro perf`` prints one block per machine
    model of ``parallel.machine.MACHINES``, in the table's order."""
    from repro.parallel.machine import MACHINES

    assert main(["perf"]) == 0
    heads = [line for line in capsys.readouterr().out.splitlines() if line.startswith("Fig 9 | ")]
    assert [head.split(" | ")[1] for head in heads] == list(MACHINES)


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


def _refusal(argv, capsys) -> str:
    """``repro <argv>`` exits 2 with one ``error:`` line on stderr; that line."""
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


@pytest.mark.parametrize(
    "section, refusal",
    [
        ('[field]\nkind = "gaussian_pulse"\nparams = {polarization = [1, 0]}\n',
         "polarization must be a 3-vector of numbers, got (1, 0)"),
        ('[field]\nkind = "static_kick"\nparams = {polarization = [1, 0]}\n',
         "polarization must be a 3-vector of numbers, got (1, 0)"),
        ('[field]\nkind = "static_kick"\nparams = {polarization = 5}\n',
         "polarization must be a 3-vector of numbers, got 5"),
        ('[field]\nkind = "static_kick"\nparams = {polarization = [0, 0, 0]}\n',
         "field.params: bad parameters for field 'static_kick': "
         "polarization must be a nonzero vector, got (0, 0, 0)"),
        ("[system]\nfunctional_params = {alpha = 2.0}\n",
         "bad parameters for functional 'hse': alpha must be in (0, 1], got 2.0"),
        ("[system]\nfunctional_params = {omega = 0.0}\n",
         "bad parameters for functional 'hse': omega must be > 0 for a screened hybrid, got 0.0"),
        ("[system]\nfunctional_params = {beta = 1}\n", "bad parameters for functional 'hse': "),
        ("[system]\ncell_params = {spacing = 1}\n", "bad parameters for cell 'silicon_cubic': "),
    ],
    ids=["pulse-polarization", "kick-polarization", "scalar-polarization", "kick-zero-polarization",
         "alpha", "omega", "unknown-functional-param", "unknown-cell-param"],
)
def test_cli_validate_builds_each_component_with_its_params(tmp_path, capsys, section, refusal):
    """``validate`` builds the cell, the functional and the field with
    their params, as ``run`` does, so what their constructors refuse exits
    2 here, named, and not only after ``run``'s SCF."""
    cfg = tmp_path / "bad.toml"
    cfg.write_text(section)
    line = _refusal(["validate", str(cfg)], capsys)
    assert refusal in line
    assert section.split("{")[1].split()[0] in line  # the param the section sets is named


def test_cli_run_refuses_a_polarization_before_the_scf(tmp_path, capsys):
    cfg = tmp_path / "bad.toml"
    cfg.write_text(TINY_TOML.replace("fwhm_fs = 0.08\n", "fwhm_fs = 0.08\npolarization = [1, 0]\n"))
    store = tmp_path / "store"
    assert main(["run", str(cfg), "--store", str(store)]) == 2
    out, err = capsys.readouterr()
    assert err == (
        "error: field.params: bad parameters for field 'gaussian_pulse': "
        "polarization must be a 3-vector of numbers, got (1, 0)\n"
    )
    assert "ground state" not in out
    assert not list(store.glob("blobs/ground_states/*.npz"))


@pytest.mark.parametrize(
    "name, text, got",
    [("bad.toml", "system = 5\n", "int"), ("bad.json", '{"system": [1, 2]}', "list")],
    ids=["toml-int", "json-list"],
)
def test_cli_validate_refuses_a_section_that_is_not_a_table(tmp_path, capsys, name, text, got):
    cfg = tmp_path / name
    cfg.write_text(text)
    line = _refusal(["validate", str(cfg)], capsys)
    assert f"config section 'system' must be a mapping or SystemConfig, got {got}" in line


def test_cli_validate_refuses_a_json_config_that_does_not_parse(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"system": {"ecut": 3.0,}}')
    assert f"invalid JSON in {cfg}: " in _refusal(["validate", str(cfg)], capsys)


def test_cli_serve_refuses_a_config_without_a_store(tmp_path, capsys):
    """Nothing binds: the refusal names the file and both ways to give a store."""
    cfg = tmp_path / "serve.toml"
    cfg.write_text("[serve]\nworkers = 1\n")
    line = _refusal(["serve", str(cfg)], capsys)
    assert f"{cfg} has no serve.store and no --store was given" in line


def test_cli_refuses_a_store_path_under_a_regular_file(tmp_path, capsys):
    """A path no store can be made at is refused before anything is created."""
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cfg = tmp_path / "cfg.toml"
    cfg.write_text(TINY_TOML)
    store = blocker / "study"
    line = _refusal(["validate", str(cfg), "--store", str(store)], capsys)
    assert f"store path {store} is not writable ({blocker} is not a writable directory)" in line
    assert blocker.read_text() == "a file, not a directory"


def _crafted_result_file(path, drop):
    """A synthetic result file, or its checkpoint when ``drop`` is a
    ``gs_*`` member, written by the one writer and rewritten without
    member ``drop``: what a foreign or hand-edited file may hold."""
    from repro.api.simulation import write_result_npz
    from repro.rt.propagator import PropagationRecord, TDState
    from repro.scf import GroundState

    config = SimulationConfig.from_dict({"propagation": {"n_steps": 1}})
    state = TDState(phi=np.ones((2, 4), dtype=complex), sigma=np.eye(2, dtype=complex), time=1.0)
    if drop.startswith("gs_"):
        gs = GroundState(
            orbitals=np.ones((2, 4), dtype=complex), eigenvalues=np.zeros(2), occupations=np.ones(2),
            sigma=np.eye(2, dtype=complex), fermi_level=0.0, density=np.ones(4), total_energy=-1.0,
            free_energy=-1.0, scf_iterations=3, converged=True,
        )
        result = SimulationResult(config, None, state, gs)
    else:
        series = {"times": np.arange(2.0), "dipole": np.zeros((2, 3)), "energy": np.zeros(2),
                  "particle_number": np.ones(2), "field": np.zeros((2, 3))}
        result = SimulationResult(config, PropagationRecord.from_arrays(series), state)
    write_result_npz(path, result)
    with np.load(path) as data:
        kept = {key: data[key] for key in data.files if key != drop}
    assert len(kept) == len(data.files) - 1
    np.savez(path, **kept)
    return path


@pytest.mark.parametrize(
    "drop, refusal",
    [
        ("energy", "trajectory arrays are missing series: energy"),
        ("gs_sigma", "is missing ground-state field 'gs_sigma'"),
    ],
)
def test_cli_resume_refuses_a_result_file_missing_a_member(tmp_path, capsys, drop, refusal):
    """A result file without one of its series, or a checkpoint without a
    ground-state field, is refused naming the file and the member."""
    from repro.api import ResultError

    path = _crafted_result_file(tmp_path / "crafted.npz", drop)
    line = _refusal(["resume", str(path), "--steps", "1"], capsys)
    assert f"result file {path}" in line and refusal in line
    with pytest.raises(ResultError if drop == "energy" else ValueError, match=re.escape(refusal)):
        SimulationResult.load_npz(path)


def test_cli_validate_bad_parallel_section(tmp_path, capsys):
    bad = tmp_path / "bad.toml"
    bad.write_text('[parallel]\npattern = "gossip"\n')
    assert main(["validate", str(bad)]) == 2
    assert "parallel.pattern" in capsys.readouterr().err
    bad.write_text('[parallel]\nmachine = "cray"\n')
    assert main(["validate", str(bad)]) == 2
    assert "parallel.machine" in capsys.readouterr().err


def test_cli_run_refuses_an_unknown_pattern_before_the_scf(tmp_path, capsys):
    """``--pattern`` has no copy of the pattern names: a misspelled one is
    refused by ``parallel.pattern``'s declaration, before any SCF."""
    cfg = tmp_path / "cfg.toml"
    cfg.write_text(TINY_TOML)
    store = tmp_path / "store"
    line = _refusal(["run", str(cfg), "--pattern", "ringg", "--store", str(store)], capsys)
    assert line.startswith("error: parallel.pattern must be one of ") and "got 'ringg'" in line
    assert not store.exists()


def test_cli_perf_refuses_an_unknown_machine(capsys):
    line = _refusal(["perf", "--machine", "nope"], capsys)
    assert "unknown machine 'nope'" in line
    assert "fugaku-arm" in line and "a100-gpu" in line


def test_cli_sweep_refuses_an_unknown_component_before_any_run(tmp_path, capsys):
    """Each sweep point is parsed when the grid is expanded, so a
    misspelled propagator exits 2 naming the key before a store, a row or
    an SCF exists."""
    cfg = tmp_path / "sweep.toml"
    cfg.write_text(TINY_TOML + '\n[sweep.axes]\n"propagation.propagator" = ["ptim", "ptm"]\n')
    store = tmp_path / "store"
    line = _refusal(["sweep", str(cfg), "--store", str(store)], capsys)
    assert line.startswith("error: propagation.propagator must be one of ") and "got 'ptm'" in line
    assert not store.exists()


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


def test_cli_reused_parallel_run_prints_its_own_table1(tmp_path, capsys):
    """The measured Table I is the run's own ledger (its propagation
    window, as stored): a run reused from the store prints the row its
    first run printed, and that row's total is the summary's."""
    cfg = REPO_ROOT / "examples" / "configs" / "parallel_ring.toml"
    args = ["run", str(cfg), "--ranks", "2", "--steps", "1", "--store", str(tmp_path / "store")]
    rows, totals = [], []
    for _ in range(2):
        assert main(args) == 0
        out = capsys.readouterr().out
        rows.append(next(line for line in out.splitlines() if line.startswith("ring ")))
        totals.append(float(re.search(r"comm \(modeled s\):.*\| total (\S+)", out).group(1)))
    assert "reused from" in out
    assert rows[0] == rows[1] and totals[0] == totals[1]
    # alltoallv sendrecv wait allgatherv allreduce bcast total_comm comm_ratio
    total_comm = float(rows[1].split()[7])
    assert total_comm > 0.0
    assert total_comm == pytest.approx(totals[1], rel=5e-3)


def test_cli_run_store_reuses_completed_run(tmp_path, capsys):
    """Identical `run --store` is idempotent; `--rerun` forces recompute."""
    cfg = tmp_path / "tiny.toml"
    cfg.write_text(TINY_TOML)
    store = tmp_path / "store"
    assert main(["run", str(cfg), "--store", str(store)]) == 0
    first = capsys.readouterr().out
    assert "reused from" not in first
    _assert_split_sums_to_its_root(first)
    assert main(["run", str(cfg), "--store", str(store)]) == 0
    second = capsys.readouterr().out
    assert "reused from" in second and "--rerun to recompute" in second
    # nothing was computed, so there is no split to print
    assert _split(second) == []
    assert main(["run", str(cfg), "--store", str(store), "--rerun"]) == 0
    third = capsys.readouterr().out
    assert "reused from" not in third
    _assert_split_sums_to_its_root(third)
    assert main(["run", str(cfg), "--store", str(store), "--rerun", "--quiet"]) == 0
    assert _split(capsys.readouterr().out) == []
    # a reused run still renders the observable table
    assert "final" in second or "t (" in second or len(second) > 0


def test_cli_run_steps_is_the_stored_config(tmp_path, capsys):
    """``--steps N`` edits the config before anything runs: the stored run
    is filed under the N-step config's hash, so the config's own length
    is not answered by it, and a bad N is refused before the SCF."""
    from repro.store import ResultStore

    cfg = tmp_path / "tiny.toml"
    cfg.write_text(TINY_TOML)
    store = tmp_path / "store"
    assert main(["run", str(cfg), "--steps", "1", "--store", str(store)]) == 0
    assert "reused from" not in capsys.readouterr().out
    assert main(["run", str(cfg), "--store", str(store)]) == 0
    assert "reused from" not in capsys.readouterr().out
    assert main(["run", str(cfg), "--steps", "1", "--store", str(store)]) == 0
    assert "reused from" in capsys.readouterr().out
    opened = ResultStore(store)
    runs = {r.config.propagation.n_steps: r.n_times for r in opened.query()}
    opened.close()
    assert runs == {1: 2, 2: 3}

    assert main(["run", str(cfg), "--steps", "-1", "--store", str(tmp_path / "other")]) == 2
    out, err = capsys.readouterr()
    assert "propagation.n_steps" in err and "ground state" not in out


def test_cli_serve_overrides_obey_the_serve_section(tmp_path, capsys, monkeypatch):
    """``repro serve`` flags are refused by the ``[serve]`` declarations
    before anything binds or a store is made."""
    from repro.serve.service import JobService

    def never(self):
        raise AssertionError("a refused flag reached JobService.start")

    monkeypatch.setattr(JobService, "start", never)
    cfg = REPO_ROOT / "examples" / "configs" / "serve.toml"
    store = tmp_path / "s"
    for flag, value, key in (("--workers", "0", "serve.workers"), ("--port", "70000", "serve.port")):
        assert main(["serve", str(cfg), "--store", str(store), flag, value]) == 2
        assert key in capsys.readouterr().err
    assert not store.exists()


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


def test_cli_jobs_ls_paging_summary(tmp_path, capsys):
    """--limit/--offset page and the summary line says what was shown."""
    import json as _json

    import numpy as _np

    from oracles import recorded_times
    from repro.api import SimulationConfig
    from repro.rt.propagator import PropagationRecord, TDState
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
        config = SimulationConfig.from_dict(data)
        record = PropagationRecord.from_arrays({
            "times": recorded_times(config),
            "dipole": rng.normal(size=(3, 3)),
            "energy": rng.normal(size=3),
            "particle_number": _np.full(3, 8.0),
            "field": rng.normal(size=(3, 3)),
        })
        state = TDState(
            phi=rng.normal(size=(2, 4)) + 0j,
            sigma=_np.zeros((2, 2), dtype=complex),
            time=1.0,
        )
        store.add_run(SimulationResult(config, record, state))
    store.close()

    assert main(["jobs", "ls", str(store_dir)]) == 0
    assert "5 run(s) in" in capsys.readouterr().out
    assert main(["jobs", "ls", str(store_dir), "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "2 run(s) shown (offset 0) of 5 total" in out
    assert main([
        "jobs", "ls", str(store_dir), "--limit", "2", "--offset", "4",
    ]) == 0
    assert "1 run(s) shown (offset 4) of 5 total" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["results", "ls", "study"], "invalid choice: 'results'"),
        (["jobs", "ls", "--url", "http://127.0.0.1:9"], "unrecognized arguments: --url"),
    ],
    ids=["results", "jobs-url"],
)
def test_cli_the_old_read_verbs_are_refused_by_the_parser(capsys, argv, refusal):
    """``repro jobs TARGET`` is the one read verb: ``repro results`` and
    ``jobs --url`` are gone, not aliased, so argparse refuses them (exit 2)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert refusal in capsys.readouterr().err
