"""The assembled Kohn-Sham Hamiltonian: Hermiticity, projection, field."""

import numpy as np
import pytest

from repro.grid import PlaneWaveGrid, silicon_cubic_cell
from repro.hamiltonian import Hamiltonian
from repro.hamiltonian.kinetic import KineticOperator
from repro.occupation.sigma import hermitize
from repro.utils.rng import default_rng
from repro.xc.hybrid import make_functional
from repro.utils.testing import random_hermitian_sigma


@pytest.fixture(scope="module")
def grid():
    return PlaneWaveGrid(silicon_cubic_cell(), ecut=2.5)


@pytest.fixture()
def ham(grid):
    h = Hamiltonian(grid, make_functional("lda"))
    rho = np.full(grid.ngrid, h.n_electrons / grid.cell.volume)
    h.update_density(rho)
    return h


@pytest.fixture()
def ham_hse(grid):
    h = Hamiltonian(grid, make_functional("hse"))
    rho = np.full(grid.ngrid, h.n_electrons / grid.cell.volume)
    h.update_density(rho)
    return h


def test_electron_count(ham):
    assert ham.n_electrons == pytest.approx(32.0)


def test_subspace_hermitian(ham, grid):
    rng = default_rng(0)
    phi = grid.random_orbitals(5, rng)
    m = ham.subspace_matrix(phi)
    assert np.abs(m - m.conj().T).max() < 1e-12


def test_apply_output_on_cutoff_sphere(ham, grid):
    """H Phi must stay inside the plane-wave sphere (P H P operator)."""
    rng = default_rng(1)
    phi = grid.random_orbitals(2, rng)
    hphi = ham.apply(phi)
    fg = grid.r_to_g(hphi)
    mask = grid.to_flat(grid.gvec.sphere_mask[None])[0]
    assert np.abs(fg[:, ~mask]).max() < 1e-12


def test_operator_hermiticity_cross_elements(ham, grid):
    rng = default_rng(2)
    x = grid.random_orbitals(2, rng)
    hx = ham.apply(x)
    a = grid.inner(x[:1], hx[1:2])[0, 0]
    b = grid.inner(hx[:1], x[1:2])[0, 0]
    assert a == pytest.approx(b, abs=1e-12)


def test_hybrid_hamiltonian_hermitian_with_exchange(ham_hse, grid):
    rng = default_rng(3)
    phi = grid.random_orbitals(4, rng)
    sigma = hermitize(random_hermitian_sigma(4, rng))
    ham_hse.set_exchange_sources(phi, sigma, mode="dense-diag")
    m = ham_hse.subspace_matrix(phi)
    assert np.abs(m - m.conj().T).max() < 1e-10


def test_exchange_modes_agree(ham_hse, grid):
    """dense-diag and dense-tripleloop produce the same H Phi."""
    rng = default_rng(4)
    phi = grid.random_orbitals(3, rng)
    sigma = hermitize(random_hermitian_sigma(3, rng))
    ham_hse.set_exchange_sources(phi, sigma, mode="dense-diag")
    a = ham_hse.apply(phi)
    ham_hse.set_exchange_sources(phi, sigma, mode="dense-tripleloop")
    b = ham_hse.apply(phi)
    assert np.allclose(a, b, atol=1e-9)


def test_dense_diag_self_and_arbitrary_target_routes_agree(ham_hse, grid):
    """Applying H to the very array given to ``set_exchange_sources``
    takes the half-cost self-application; an equal-valued copy is just
    another block and takes the all-pairs route.  Same operator, and the
    route follows identity, never a comparison of values."""
    rng = default_rng(8)
    n = 6
    phi = grid.random_orbitals(n, rng)
    sigma = hermitize(random_hermitian_sigma(n, rng))
    ham_hse.set_exchange_sources(phi, sigma, mode="dense-diag")
    counters = grid.backend.counters

    def exchange_transforms(block):
        snap = counters.snapshot()
        ham_hse.apply(block, include_exchange=False)
        base = counters.since(snap).transforms
        snap = counters.snapshot()
        out = ham_hse.apply(block)
        return out, counters.since(snap).transforms - base

    via_self, n_self = exchange_transforms(phi)
    via_targets, n_targets = exchange_transforms(phi.copy())
    assert n_self == n * (n + 1)
    assert n_targets == 2 * n * n
    assert np.abs(via_self - via_targets).max() <= 1e-12 * np.abs(via_targets).max()


def test_ace_mode_matches_dense_on_generators(ham_hse, grid):
    rng = default_rng(5)
    phi = grid.random_orbitals(3, rng)
    sigma = hermitize(random_hermitian_sigma(3, rng))
    ham_hse.set_exchange_sources(phi, sigma, mode="dense-diag")
    dense = ham_hse.apply(phi)
    ham_hse.set_ace(ham_hse.build_ace(phi, sigma))
    compressed = ham_hse.apply(phi)
    assert np.allclose(dense, compressed, atol=1e-8)


def test_clear_exchange(ham_hse, grid):
    rng = default_rng(6)
    phi = grid.random_orbitals(2, rng)
    sigma = np.diag([1.0, 0.5]).astype(complex)
    ham_hse.set_exchange_sources(phi, sigma)
    ham_hse.clear_exchange()
    assert np.allclose(ham_hse.apply_exchange(phi), 0.0)


def test_semilocal_rejects_exchange_config(ham, grid):
    rng = default_rng(7)
    phi = grid.random_orbitals(2, rng)
    with pytest.raises(ValueError):
        ham.set_exchange_sources(phi, np.eye(2, dtype=complex))


# ---------------- kinetic + vector potential ------------------------------------
def test_kinetic_shift_by_vector_potential(grid):
    kin = KineticOperator(grid)
    base = kin.diagonal_g.copy()
    a = np.array([0.02, 0.0, 0.0])
    kin.set_vector_potential(a)
    shifted = kin.diagonal_g
    g = grid.gvec.cartesian.reshape(-1, 3)
    expected = 0.5 * np.einsum("ij,ij->i", g + a, g + a)
    assert np.allclose(shifted, expected, atol=1e-12)
    kin.set_vector_potential(None)
    assert np.allclose(kin.diagonal_g, base)


def test_kinetic_energy_positive(grid):
    kin = KineticOperator(grid)
    rng = default_rng(8)
    phi = grid.random_orbitals(3, rng)
    phi_g = grid.r_to_g(phi)
    assert kin.energy(phi_g, np.ones(3)) > 0.0


def test_set_time_updates_field(grid):
    from repro.rt.field import GaussianLaserPulse

    pulse = GaussianLaserPulse(amplitude=0.01, center_fs=0.0, fwhm_fs=1.0)
    ham = Hamiltonian(grid, make_functional("lda"), field=pulse)
    rho = np.full(grid.ngrid, ham.n_electrons / grid.cell.volume)
    ham.update_density(rho)
    ham.set_time(0.0)
    a0 = ham.kinetic.vector_potential
    assert np.linalg.norm(a0) > 0.0
    ham.set_time(500.0)  # far in the tail
    assert np.linalg.norm(ham.kinetic.vector_potential) < np.linalg.norm(a0)
