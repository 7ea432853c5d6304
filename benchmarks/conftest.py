"""Benchmark fixtures: one shared small hybrid ground state."""

from __future__ import annotations

import pytest

from repro.grid import PlaneWaveGrid, silicon_cubic_cell
from repro.hamiltonian import Hamiltonian
from repro.rt import ZeroField
from repro.scf import SCFOptions, run_scf
from repro.xc.hybrid import make_functional


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
