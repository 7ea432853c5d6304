"""Fermi-Dirac occupations and sigma (occupation-matrix) algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import matrix_diag_density, random_hermitian_sigma
from repro.grid import PlaneWaveGrid, silicon_cubic_cell
from repro.occupation.fermi import (
    fermi_dirac,
    fermi_occupations,
    find_fermi_level,
    smearing_entropy,
)
from repro.occupation.sigma import (
    density_from_orbitals_pairwise,
    diagonalize_sigma,
    hermitize,
    initial_sigma,
    rotate_orbitals,
    sigma_commutator,
    trace_sigma,
)
from repro.utils.rng import default_rng


# ---------------- Fermi-Dirac ---------------------------------------------------
def test_fermi_dirac_bounds():
    eps = np.linspace(-2, 2, 101)
    f = fermi_dirac(eps, 0.0, 0.05)
    assert np.all(f >= 0) and np.all(f <= 1)
    assert f[0] > 0.999 and f[-1] < 0.001


def test_fermi_dirac_half_at_mu():
    assert fermi_dirac(np.array([0.3]), 0.3, 0.02)[0] == pytest.approx(0.5)


def test_zero_temperature_step():
    eps = np.array([-1.0, 0.0, 1.0])
    f = fermi_dirac(eps, 0.5, 0.0)
    assert np.allclose(f, [1.0, 1.0, 0.0])


@given(
    ne=st.integers(min_value=2, max_value=30),
    kt=st.floats(min_value=1e-4, max_value=0.2),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=40, deadline=None)
def test_fermi_level_conserves_electrons(ne, kt, seed):
    rng = np.random.default_rng(seed)
    eps = np.sort(rng.standard_normal(20))
    if ne > 2 * 20:
        return
    f, mu = fermi_occupations(eps, float(ne), kt)
    assert 2.0 * f.sum() == pytest.approx(ne, abs=1e-8)


def test_fermi_level_monotonic_in_electron_count():
    eps = np.linspace(-1, 1, 16)
    mus = [find_fermi_level(eps, ne, 0.02) for ne in (4.0, 8.0, 16.0)]
    assert mus[0] < mus[1] < mus[2]


def test_overfull_rejected():
    with pytest.raises(ValueError):
        find_fermi_level(np.zeros(3), 10.0, 0.01)


def test_entropy_zero_for_integer_occupations():
    assert smearing_entropy(np.array([1.0, 1.0, 0.0])) == pytest.approx(0.0, abs=1e-10)


def test_entropy_max_at_half_filling():
    s_half = smearing_entropy(np.array([0.5]))
    s_other = smearing_entropy(np.array([0.3]))
    assert s_half > s_other
    assert s_half == pytest.approx(2.0 * np.log(2.0), rel=1e-12)


# ---------------- sigma algebra -------------------------------------------------
def test_initial_sigma_diagonal():
    occ = np.array([1.0, 0.7, 0.2])
    s = initial_sigma(occ)
    assert np.allclose(s, np.diag(occ))
    assert trace_sigma(s) == pytest.approx(1.9)


def test_initial_sigma_rejects_unphysical():
    with pytest.raises(ValueError):
        initial_sigma(np.array([1.2, 0.0]))


def test_a_sigma_that_is_not_square_is_refused_by_name():
    with pytest.raises(ValueError, match=r"sigma must be square 2-D, got shape \(2, 3\)"):
        hermitize(np.zeros((2, 3)))


def test_hermitize_fixed_point():
    rng = default_rng(0)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    h = hermitize(a)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(hermitize(h), h)


def test_diagonalize_reconstructs():
    rng = default_rng(1)
    sigma = random_hermitian_sigma(6, rng)
    d, q = diagonalize_sigma(sigma)
    assert np.allclose((q * d[None, :]) @ q.conj().T, sigma, atol=1e-12)


def test_diagonalize_rejects_nonhermitian():
    with pytest.raises(ValueError):
        diagonalize_sigma(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_commutator_antihermitian_generator():
    rng = default_rng(2)
    h = hermitize(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    s = random_hermitian_sigma(4, rng)
    c = sigma_commutator(h, s)
    # [H, sigma] is anti-Hermitian for Hermitian H, sigma
    assert np.allclose(c, -c.conj().T, atol=1e-12)
    # and traceless
    assert abs(np.trace(c)) < 1e-12


# ---------------- density paths ------------------------------------------------
@pytest.fixture(scope="module")
def grid():
    return PlaneWaveGrid(silicon_cubic_cell(), ecut=2.0)


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_density_diag_equals_pairwise(grid, seed):
    """Sec. IV-A1's key identity: the two density paths agree exactly."""
    rng = np.random.default_rng(seed)
    phi = grid.random_orbitals(5, rng)
    sigma = random_hermitian_sigma(5, rng)
    rho_p = density_from_orbitals_pairwise(grid, phi, sigma, degeneracy=2.0)
    rho_d = matrix_diag_density(grid, phi, sigma, degeneracy=2.0)
    assert np.allclose(rho_p, rho_d, atol=1e-11)


def test_density_integrates_to_trace(grid):
    rng = default_rng(4)
    phi = grid.random_orbitals(5, rng)
    sigma = random_hermitian_sigma(5, rng)
    rho = matrix_diag_density(grid, phi, sigma, degeneracy=2.0)
    assert rho.sum() * grid.dv == pytest.approx(2.0 * trace_sigma(sigma), rel=1e-10)


def test_density_gauge_invariance(grid):
    """rho is invariant under (Phi U, U* sigma U)."""
    rng = default_rng(5)
    phi = grid.random_orbitals(4, rng)
    sigma = random_hermitian_sigma(4, rng)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    phi_u = rotate_orbitals(phi, q)
    sigma_u = q.conj().T @ sigma @ q
    rho_a = density_from_orbitals_pairwise(grid, phi, sigma)
    rho_b = density_from_orbitals_pairwise(grid, phi_u, sigma_u)
    assert np.allclose(rho_a, rho_b, atol=1e-11)


def test_density_nonnegative_for_physical_sigma(grid):
    rng = default_rng(6)
    phi = grid.random_orbitals(4, rng)
    sigma = random_hermitian_sigma(4, rng)
    rho = matrix_diag_density(grid, phi, sigma)
    assert rho.min() > -1e-10
