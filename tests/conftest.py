"""Shared fixtures: small silicon systems sized for fast tests.

Session-scoped ground states are computed once; tests that mutate state
must copy.  Grids are deliberately tiny (ecut 2-3 Ha) — every algebraic
identity tested is resolution-independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grid import PlaneWaveGrid, silicon_cubic_cell
from repro.hamiltonian import Hamiltonian
from repro.rt import ZeroField
from repro.scf import SCFOptions, run_scf
from repro.utils.rng import default_rng
from repro.xc.hybrid import make_functional


@pytest.fixture(scope="session")
def si_cell():
    return silicon_cubic_cell()


@pytest.fixture(scope="session")
def small_grid(si_cell):
    """12^3 grid, 8-atom Si, ecut 3 Ha."""
    return PlaneWaveGrid(si_cell, ecut=3.0)


@pytest.fixture(scope="session")
def tiny_grid(si_cell):
    """10^3-ish grid for the most expensive algebraic tests."""
    return PlaneWaveGrid(si_cell, ecut=2.0)


@pytest.fixture()
def rng():
    return default_rng(42)


@pytest.fixture(scope="session")
def lda_ground_state(small_grid):
    """Converged LDA ground state at 8000 K (session-cached)."""
    ham = Hamiltonian(small_grid, make_functional("lda"), field=ZeroField())
    gs = run_scf(ham, SCFOptions(temperature_k=8000.0, nbands=24, density_tol=1e-6, max_scf=40))
    return ham, gs


@pytest.fixture(scope="session")
def hse_ground_state(small_grid):
    """Converged screened-hybrid ground state at 8000 K (session-cached)."""
    ham = Hamiltonian(small_grid, make_functional("hse"), field=ZeroField())
    gs = run_scf(
        ham,
        SCFOptions(temperature_k=8000.0, nbands=24, density_tol=1e-6, max_scf=30, max_outer=15),
    )
    return ham, gs


@pytest.fixture()
def random_orbitals(small_grid, rng):
    return small_grid.random_orbitals(8, rng)


from repro.utils.testing import random_hermitian_sigma  # noqa: E402,F401  (re-export for tests)
