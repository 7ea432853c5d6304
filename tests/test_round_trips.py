"""End-to-end round trips through fresh processes (``-m slow``).

Each test drives ``python -m repro`` or ``python -m bench`` as a user
would, one subprocess per command, in a scratch directory: a config
through SCF, propagation, checkpoint and resume; a distributed run, its
store and its three schedules; a stored sweep, its resume, query and
export; a real job server from boot to fetch; and the three benchmark
workloads' own correctness checks.  What is checked in-process lives in
the tier-1 files; these are the checks that need a fresh interpreter, a
bound port or the benchmark harness.
"""

import json
import os
import re
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

pytestmark = pytest.mark.slow

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIGS = REPO_ROOT / "examples" / "configs"


def _env():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep * bool(env.get("PYTHONPATH")) + env.get("PYTHONPATH", "")
    return env


def _python(args, cwd, code=0):
    """``python *args`` in ``cwd``; asserts its exit status."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=_env(), capture_output=True, text=True, timeout=900
    )
    assert proc.returncode == code, (args, proc.stdout[-2000:], proc.stderr[-3000:])
    return proc


def _repro(*args, cwd, code=0):
    return _python(["-m", "repro", *map(str, args)], cwd, code)


def _line(out, prefix):
    return next(line for line in out.splitlines() if line.startswith(prefix))


def test_ci_smoke_round_trip(tmp_path):
    """``ci_smoke.toml``: validate, run to a checkpoint and a result file,
    resume from each; the computing process imports pocketfft's extension
    and no SciPy package, and a routing verb imports no SciPy at all."""
    cfg = CONFIGS / "ci_smoke.toml"
    _repro("validate", cfg, cwd=tmp_path)
    run = _python(
        ["-X", "importtime", "-m", "repro", "run", str(cfg), "--fft-workers", "2",
         "--checkpoint", "ck.npz", "--output", "run.npz"],
        tmp_path,
    )
    assert "workers=2) + counters" in run.stdout
    assert re.search(r"scipy\.(fft|special|_lib)", run.stderr) is None
    _line(run.stdout, "api.run ")
    _line(run.stdout, "rt.fixed_point_update ")
    _repro("resume", "ck.npz", "--steps", "1", cwd=tmp_path)
    _repro("resume", "run.npz", "--steps", "1", cwd=tmp_path)
    _repro("components", cwd=tmp_path)
    # a verb that only routes: exit 2 on a dead address, no scipy imported
    dead = _python(
        ["-X", "importtime", "-m", "repro", "jobs", "ls", "http://127.0.0.1:9"],
        tmp_path,
        code=2,
    )
    assert "scipy" not in dead.stderr


def test_parallel_ring_round_trip(tmp_path):
    """Four simulated ranks: a stored async-ring run and its resume; the
    same run reused from the store prints the Table I row its first run
    printed (its ring wait non-zero); the bcast and ring schedules write
    the same arrays bit for bit; and one variant of the pattern sweep."""
    from repro.api.config import load_sweep_file
    from repro.api.ensemble import SweepConfig, run_ensemble

    cfg = CONFIGS / "parallel_ring.toml"
    _repro("validate", cfg, cwd=tmp_path)
    ring4 = ("run", cfg, "--ranks", "4", "--steps", "1")
    first = _repro(
        *ring4, "--pattern", "async-ring", "--checkpoint", "par_ck.npz",
        "--output", "par_run.npz", "--store", "par_store", cwd=tmp_path,
    ).stdout
    _repro("resume", "par_ck.npz", "--steps", "1", cwd=tmp_path)
    second = _repro(*ring4, "--pattern", "async-ring", "--store", "par_store", cwd=tmp_path).stdout
    assert "reused from" in second
    row = _line(second, "async-ring ")
    assert row == _line(first, "async-ring ")
    # alltoallv sendrecv wait ...
    assert float(row.split()[3]) > 0.0

    for pattern in ("bcast", "ring"):
        _repro(*ring4, "--pattern", pattern, "--output", f"par_{pattern}.npz", cwd=tmp_path)
    runs = [np.load(tmp_path / f"par_{name}.npz") for name in ("run", "bcast", "ring")]
    # every array but the config and the ledger, which name the schedule
    keys = set(runs[0].files) - {"config_json", "parallel_json"}
    for other in runs[1:]:
        assert set(other.files) - {"config_json", "parallel_json"} == keys
        for key in keys:
            assert np.array_equal(runs[0][key], other[key], equal_nan=True), key

    sweep_cfg = CONFIGS / "parallel_pattern_sweep.toml"
    _repro("sweep", sweep_cfg, "--dry-run", cwd=tmp_path)
    base, _ = load_sweep_file(sweep_cfg)
    sweep = SweepConfig.from_dict({"axes": {"parallel.pattern": ["async-ring"]}})
    result = run_ensemble(base, sweep, workers=1)
    result.raise_on_failure()
    assert result.fft_totals().complete
    assert result.parallel_ledgers()


def test_store_round_trip(tmp_path):
    """A stored sweep drained by the caller alone, re-run at two workers
    (every variant restored, nothing converged), read back through
    ``run_ensemble``, queried, shown and exported bit-exact; then a stored
    run is one more row with one attempt, and no liveness file is left."""
    from repro.api import SimulationResult, load_sweep_file, run_ensemble
    from repro.store import ResultStore

    cfg = CONFIGS / "sweep_absorption.toml"
    study = tmp_path / "study"
    _repro("validate", cfg, "--store", study, cwd=tmp_path)
    _repro("sweep", cfg, "--store", study, "--workers", "1", cwd=tmp_path)
    resumed = _repro("sweep", cfg, "--store", study, "--workers", "2", cwd=tmp_path).stdout
    assert resumed.count("restored from store") == 4
    assert "converging ground state" not in resumed
    assert len(list(study.glob("blobs/ground_states/*.npz"))) == 1
    assert len(list(study.glob("runs/*.npz"))) == 4
    assert not (study / "blobs" / "configs").exists()

    base, sweep = load_sweep_file(cfg)
    lines = []
    result = run_ensemble(base, sweep, store=study, workers=1, progress=lines.append)
    assert [r.status for r in result.runs] == ["ok"] * 4, result.summary()
    assert sum("restored from store" in line for line in lines) == 4, lines
    assert not any(line.startswith("converging") for line in lines), lines
    assert result.stacked("dipole").shape == (4, 5, 3)
    omega, strengths = result.dipole_spectra()
    assert strengths.shape == (4, len(omega))

    listed = _repro("jobs", "ls", study, "--status", "ok", cwd=tmp_path).stdout
    run_id = listed.splitlines()[1].split()[0]
    _repro("jobs", "show", study, run_id, cwd=tmp_path)
    _repro("jobs", "fetch", study, run_id, "exported.npz", cwd=tmp_path)
    config, arrays = SimulationResult.load_npz(tmp_path / "exported.npz")
    assert "times" in arrays and "dipole" in arrays
    _, stored = SimulationResult.load_npz(study / "runs" / f"{run_id}.npz", expected_config=config)
    assert arrays.keys() == stored.keys()
    # equal_nan: this sweep does not record the energy (a NaN series)
    assert all(np.array_equal(arrays[k], stored[k], equal_nan=True) for k in arrays)

    _repro("run", CONFIGS / "ci_smoke.toml", "--store", study, "--quiet", cwd=tmp_path)
    assert not any((study / "workers").glob("*"))
    store = ResultStore(study, create=False)
    try:
        rows = store.query()
        assert [r.status for r in rows] == ["ok"] * 5, rows
        assert all(r.attempts == len(store.queue.attempts(r.run_id)) == 1 for r in rows), rows
    finally:
        store.close()


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _get(url):
    with urllib.request.urlopen(url, timeout=5) as reply:
        return json.loads(reply.read())


def test_serve_round_trip(tmp_path):
    """A real ``repro serve``: boot, submit the sweep's three variants,
    watch the queue drain, list, show and fetch a job (its id is its
    stored run's); the server maps no SciPy library, and the three
    coalescing variants left one ground-state blob."""
    from repro.api import SimulationResult

    cfg = CONFIGS / "serve.toml"
    port = _free_port()
    url = f"http://127.0.0.1:{port}"
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", str(cfg), "--store", "study",
         "--port", str(port), "--quiet"],
        cwd=tmp_path, env=_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 60.0
        while True:
            try:
                assert _get(f"{url}/healthz")["ok"]
                break
            except OSError:
                assert server.poll() is None and time.monotonic() < deadline
                time.sleep(0.2)
        _repro("submit", cfg, "--url", url, cwd=tmp_path)
        _repro("jobs", "watch", url, "--timeout", "900", cwd=tmp_path)
        listed = _repro("jobs", "ls", url, "--status", "ok", cwd=tmp_path).stdout
        job_id = listed.splitlines()[1].split()[0]
        _repro("jobs", "show", url, job_id, cwd=tmp_path)
        _repro("jobs", "show", "study", job_id, cwd=tmp_path)
        _repro("jobs", "fetch", url, job_id, "job.npz", cwd=tmp_path)
        assert _get(f"{url}/stats")["jobs"]["ok"] == 3
        # "/scipy/", not "scipy": numpy's wheels map their own libscipy_openblas
        assert "/scipy/" not in Path(f"/proc/{server.pid}/maps").read_text()
    finally:
        server.terminate()
        server.wait(timeout=60)
    config, arrays = SimulationResult.load_npz(tmp_path / "job.npz")
    assert "times" in arrays and "dipole" in arrays
    assert len(list((tmp_path / "study" / "blobs" / "ground_states").glob("*.npz"))) == 1


@pytest.mark.parametrize(
    "workload, trace", [("si8-hse-dense-r2", "1"), ("si8-hse-ace", "1"), ("si16-lda-sweep", "0")]
)
def test_bench_smoke(tmp_path, workload, trace):
    """The benchmark's own correctness checks pass on each workload, traced
    through the names ``bench/`` wraps where ``trace`` is 1 (the sweep's
    spawned worker re-imports ``bench`` as ``__mp_main__``)."""
    proc = _python(
        ["-m", "bench", "--workload", workload, "--seed", "1", "--seconds", "4",
         "--trace", trace, "--out", str(tmp_path)],
        REPO_ROOT,
    )
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
