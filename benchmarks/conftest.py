"""Benchmark fixtures: one shared small hybrid ground state, and where
the ``BENCH_*.json`` writers put their artifact."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.grid import PlaneWaveGrid, silicon_cubic_cell
from repro.hamiltonian import Hamiltonian
from repro.rt import ZeroField
from repro.scf import SCFOptions, run_scf
from repro.xc.hybrid import make_functional


def pytest_addoption(parser):
    parser.addoption(
        "--write-bench",
        action="store_true",
        help="write BENCH_serve/store.json at the repo root (default: under pytest's tmp dir)",
    )


@pytest.fixture(scope="session")
def bench_dir(request, tmp_path_factory) -> Path:
    """Directory the ``BENCH_*.json`` writers write to and read back from.

    The tracked files at the repo root change only when asked to
    (``--write-bench``): a bare ``pytest`` is the tier-1 verify command
    and must leave the working tree as it found it.
    """
    if request.config.getoption("--write-bench"):
        return Path(__file__).resolve().parent.parent
    return tmp_path_factory.mktemp("bench_json")


@pytest.fixture(scope="session")
def bench_grid():
    return PlaneWaveGrid(silicon_cubic_cell(), ecut=3.0)


@pytest.fixture(scope="session")
def bench_hse_gs(bench_grid):
    ham = Hamiltonian(bench_grid, make_functional("hse"), field=ZeroField())
    gs = run_scf(
        ham,
        SCFOptions(temperature_k=8000.0, nbands=24, density_tol=1e-6, max_outer=15),
    )
    return ham, gs
