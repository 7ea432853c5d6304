"""Only a process that computes imports the physics.

The job service and ``repro jobs`` (on a store directory or a server)
route configs, rows and files; they never run a transform.  These tests
hold them to numpy and nothing heavier, hold a computing process to
numpy and pocketfft's extension, and hold the lazy facades to their
``__all__``.
"""

import importlib
import json
import subprocess
import sys

import pytest

#: what a routing process must not load: scipy and the physics packages
PHYSICS = (
    "scipy",
    *(
        f"repro.{name}"
        for name in (
            "backend", "grid", "hamiltonian", "hartree", "xc", "pseudo", "scf",
            "rt", "occupation", "observables",
        )
    ),
    "repro.parallel.distfock",
    "repro.parallel.context",
)

_SERVED_STUDY = """
import json
import sys

sys.path[:0] = {path!r}

from repro.api.cli import main
from repro.serve import JobService, ServeClient

PHYSICS = {physics!r}
CONFIG = {{
    "system": {{"cell": "silicon_cubic", "ecut": 2.0, "functional": "lda"}},
    "scf": {{"nbands": 20, "density_tol": 1e-4, "max_scf": 40}},
    "field": {{"kind": "static_kick", "params": {{"kick": 0.001}}}},
    "propagation": {{"propagator": "ptim", "dt_as": 50.0, "n_steps": 1}},
    "parallel": {{"ranks": 1, "pattern": "async-ring", "machine": "a100"}},
}}

if __name__ == "__main__":  # not in the spawned worker, which re-imports this file
    root = {root!r}
    with JobService(root, port=0, workers=1, backoff=0.0) as service:
        client = ServeClient(service.url)
        assert client.healthz()["ok"]
        job = client.submit(CONFIG)
        done = client.wait(job["job_id"], timeout_s=300.0)
        assert done["status"] == "ok", done
        client.fetch(job["job_id"], {fetched!r})
        assert [j["job_id"] for j in client.jobs()] == [job["job_id"]]
        assert client.stats()["jobs"]["ok"] == 1
        # the filters parse in the listing process and, for the URL, in the
        # server's handler thread: neither loads the physics
        for target in (root, service.url):
            assert main(["jobs", "ls", target, "--where", "field.params.kick=0.001",
                         "--since", "2000-01-01"]) == 0
    loaded = sorted(
        m for m in sys.modules
        if any(m == p or m.startswith(p + ".") for p in PHYSICS)
    )
    print(json.dumps(loaded))
"""


def test_a_served_study_never_imports_the_physics(tmp_path):
    """Boot, a ``[parallel]`` config validated and run to ``ok`` by a
    worker, its result fetched, the job list and stats read, and the
    ``jobs ls`` verb, filtered by ``--where`` and ``--since``, against the
    store directory and the URL: none of it loads scipy or a physics
    module in the serving process."""
    script = tmp_path / "served_study.py"
    script.write_text(
        _SERVED_STUDY.format(
            path=sys.path,
            physics=PHYSICS,
            root=str(tmp_path / "store"),
            fetched=str(tmp_path / "job.npz"),
        )
    )
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.count("1 run(s) in ") == 2
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
    assert (tmp_path / "job.npz").stat().st_size > 0


def test_listing_the_components_loads_no_physics(tmp_path):
    """``repro components`` reads the component table, not the factories."""
    script = (
        f"import json, sys\nsys.path[:0] = {sys.path!r}\n"
        "from repro.api.cli import main\n"
        "assert main(['components']) == 0\n"
        f"print(json.dumps(sorted(m for m in sys.modules if any("
        f"m == p or m.startswith(p + '.') for p in {PHYSICS!r}))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert "propagator: ptcn, ptim, ptim_ace, rk4" in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


#: SciPy's Python packages: its FFT and special-function layers and the
#: array-API layer both import (which imports ``numpy.f2py``)
SCIPY_PACKAGES = ("scipy.fft", "scipy.special", "scipy._lib._array_api")

_HYBRID_RUN = """
import json
import sys

sys.path[:0] = {path!r}

from repro import Simulation

result = Simulation({{
    "system": {{"cell": "silicon_cubic", "ecut": 2.0, "functional": "hse"}},
    "scf": {{"nbands": 20, "density_tol": 1e-3, "exchange_tol": 1e-3, "max_scf": 4}},
    "field": {{"kind": "static_kick", "params": {{"kick": 0.001}}}},
    "propagation": {{"propagator": "ptim_ace", "dt_as": 50.0, "n_steps": 1}},
}}).run()
assert result.fft.transforms > 0
loaded = sorted(m for m in {packages!r} if m in sys.modules)
binding = sys.modules["scipy.fft._pocketfft.pypocketfft"]
import scipy.fft

print(json.dumps([loaded, scipy.fft._pocketfft.basic.pfft is binding]))
"""


def test_a_computing_process_loads_no_scipy_package(tmp_path):
    """A hybrid ground state and PT-IM-ACE step run on numpy and the one
    pocketfft extension: no SciPy package is imported, and a later
    ``import scipy.fft`` reuses the extension module the engine bound."""
    script = tmp_path / "hybrid_run.py"
    script.write_text(_HYBRID_RUN.format(path=sys.path, packages=SCIPY_PACKAGES))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == [[], True]


@pytest.mark.parametrize(
    "facade", ["repro", "repro.api", "repro.parallel", "repro.serve", "repro.store"]
)
def test_every_lazy_export_resolves(facade):
    """Each name of ``__all__`` resolves, ``dir()`` lists it, and a star
    import binds it: a missing or misspelled map entry fails here."""
    module = importlib.import_module(facade)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
        assert name in dir(module), name
    namespace = {}
    exec(f"from {facade} import *", namespace)
    assert set(module.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no attribute"):
        getattr(module, "no_such_name")
