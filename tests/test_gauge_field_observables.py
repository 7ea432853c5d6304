"""Gauge utilities, laser fields, dipole and spectrum observables."""

import numpy as np
import pytest

from oracles import (
    apply_gauge,
    density_matrix_distance,
    density_matrix_product_trace,
    random_hermitian_sigma,
    recover_gauge,
)
from repro.constants import AU_PER_FEMTOSECOND
from repro.grid import PlaneWaveGrid, silicon_cubic_cell
from repro.observables.dipole import cell_centered_coordinates, dipole_moment
from repro.observables.spectrum import absorption_spectrum
from repro.rt.field import GaussianLaserPulse, StaticKick, ZeroField
from repro.utils.rng import default_rng


@pytest.fixture(scope="module")
def grid():
    return PlaneWaveGrid(silicon_cubic_cell(), ecut=2.0)


# ---------------- gauge ---------------------------------------------------------
def test_gauge_transform_preserves_density_matrix(grid):
    rng = default_rng(0)
    phi = grid.random_orbitals(4, rng)
    sigma = random_hermitian_sigma(4, rng)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    phi_u, sigma_u = apply_gauge(phi, sigma, q)
    # |P_A - P_B|_F^2 = Tr P_A^2 + Tr P_B^2 - 2 Tr P_A P_B, taken un-rooted and
    # un-clamped: a wrong gauge puts it at O(Tr P^2), round-off at a few ulp of
    # Tr P^2 with either sign (the root of one ulp of 2.7 already reads 3e-8,
    # so a bare bound on the distance tests the sign of the round-off)
    taa = density_matrix_product_trace(grid, phi, sigma, phi, sigma)
    tbb = density_matrix_product_trace(grid, phi_u, sigma_u, phi_u, sigma_u)
    tab = density_matrix_product_trace(grid, phi, sigma, phi_u, sigma_u)
    ulps = 16 * np.finfo(float).eps * taa
    assert abs(tbb - taa) <= ulps and abs(tab - taa) <= ulps
    assert abs(taa + tbb - 2.0 * tab) <= ulps
    assert density_matrix_distance(grid, phi, sigma, phi_u, sigma_u) ** 2 <= ulps


def test_density_matrix_distance_zero_for_self(grid):
    rng = default_rng(1)
    phi = grid.random_orbitals(3, rng)
    sigma = random_hermitian_sigma(3, rng)
    assert density_matrix_distance(grid, phi, sigma, phi, sigma) == pytest.approx(0.0, abs=1e-10)


def test_density_matrix_distance_detects_change(grid):
    rng = default_rng(2)
    phi = grid.random_orbitals(3, rng)
    sigma_a = np.diag([1.0, 1.0, 0.0]).astype(complex)
    sigma_b = np.diag([1.0, 0.0, 1.0]).astype(complex)
    assert density_matrix_distance(grid, phi, sigma_a, phi, sigma_b) > 0.5


def test_recover_gauge_finds_rotation(grid):
    rng = default_rng(3)
    psi = grid.random_orbitals(4, rng)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    phi, _ = apply_gauge(psi, np.eye(4, dtype=complex), q)
    u = recover_gauge(grid, phi, psi)
    assert np.abs(u - q).max() < 1e-8


def test_apply_gauge_rejects_nonunitary(grid):
    rng = default_rng(4)
    phi = grid.random_orbitals(2, rng)
    with pytest.raises(ValueError):
        apply_gauge(phi, np.eye(2, dtype=complex), np.ones((2, 2)))


# ---------------- laser field -----------------------------------------------------
def test_electric_field_is_minus_dA_dt():
    pulse = GaussianLaserPulse(amplitude=0.01, wavelength_nm=380.0, center_fs=2.0, fwhm_fs=1.5)
    t = 1.7 * AU_PER_FEMTOSECOND
    h = 1e-4
    dadt = (pulse.vector_potential(t + h) - pulse.vector_potential(t - h)) / (2 * h)
    assert np.allclose(pulse.electric_field(t), -dadt, atol=1e-8)


def test_pulse_peak_field_amplitude():
    pulse = GaussianLaserPulse(amplitude=0.02, wavelength_nm=380.0, center_fs=5.0, fwhm_fs=3.0)
    ts = np.linspace(0, 10 * AU_PER_FEMTOSECOND, 4001)
    e = np.array([pulse.electric_field(t)[0] for t in ts])
    assert np.abs(e).max() == pytest.approx(0.02, rel=0.05)


def test_pulse_polarization_normalized():
    pulse = GaussianLaserPulse(polarization=(2.0, 0.0, 0.0))
    assert np.allclose(pulse.polarization, (1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        GaussianLaserPulse(polarization=(0.0, 0.0, 0.0))


def test_kick_polarization_normalized():
    """The kick's direction is normalized as the pulse's is, so |A| is the
    kick in any direction; a unit axis vector is kept bit for bit."""
    kick = StaticKick(kick=1e-3, polarization=(1, 1, 0))
    assert np.linalg.norm(kick.vector_potential(1.0)) == pytest.approx(1e-3, rel=1e-15)
    along_z = StaticKick(kick=2e-3, polarization=(0, 0, 1)).vector_potential(1.0)
    assert along_z.tobytes() == (2e-3 * np.array([0.0, 0.0, 1.0])).tobytes()
    with pytest.raises(ValueError, match="polarization must be a nonzero vector"):
        StaticKick(polarization=[0, 0, 0])


def test_pulse_envelope_decays():
    pulse = GaussianLaserPulse(center_fs=1.0, fwhm_fs=0.5)
    far = 20.0 * AU_PER_FEMTOSECOND
    assert np.linalg.norm(pulse.vector_potential(far)) < 1e-12


def test_zero_field():
    z = ZeroField()
    assert np.allclose(z.vector_potential(3.0), 0.0)
    assert np.allclose(z.electric_field(3.0), 0.0)


def test_static_kick():
    k = StaticKick(kick=1e-3)
    assert np.allclose(k.vector_potential(-1.0), 0.0)
    assert np.allclose(k.vector_potential(5.0), [1e-3, 0, 0])


# ---------------- dipole ------------------------------------------------------------
def test_coordinates_centered(grid):
    coords = cell_centered_coordinates(grid)
    a = grid.cell.lattice[0, 0]
    assert coords.min() >= -a / 2 - 1e-9
    assert coords.max() < a / 2


def test_dipole_of_uniform_density_zero(grid):
    rho = np.ones(grid.ngrid)
    d = dipole_moment(grid, rho)
    # the sawtooth grid is centered up to half a grid spacing: the exact
    # residual dipole of a uniform density is V * a / (2 n) per axis
    a = grid.cell.lattice[0, 0]
    bound = grid.cell.volume * a / (2.0 * grid.shape[0]) * 1.01
    assert np.abs(d).max() <= bound


def test_dipole_of_displaced_gaussian(grid):
    """Dipole = -q * displacement for a localized charge blob."""
    coords = cell_centered_coordinates(grid)
    shift = np.array([0.8, 0.0, 0.0])
    r2 = np.einsum("ij,ij->i", coords - shift, coords - shift)
    rho = np.exp(-r2)
    q = rho.sum() * grid.dv
    d = dipole_moment(grid, rho)
    assert d[0] == pytest.approx(-q * 0.8, rel=0.02)
    assert abs(d[1]) < 1e-6 * q


def test_dipole_reference_subtraction(grid):
    rho = np.ones(grid.ngrid)
    base = dipole_moment(grid, rho)
    assert np.allclose(dipole_moment(grid, rho, reference=base), 0.0, atol=1e-14)


# ---------------- spectrum -----------------------------------------------------------
def test_spectrum_peak_at_oscillation_frequency():
    """A damped cosine dipole gives a peak at its frequency."""
    w0 = 0.25
    dt = 0.5
    t = np.arange(4000) * dt
    dip = 1e-3 * (np.cos(w0 * t) - 1.0)  # starts at 0
    omega, s = absorption_spectrum(t, dip, kick=1e-3, damping=0.002)
    peak = omega[np.argmax(np.abs(s))]
    assert peak == pytest.approx(w0, abs=0.01)


def test_spectrum_rejects_nonuniform_times():
    t = np.array([0.0, 1.0, 2.5, 3.0])
    with pytest.raises(ValueError):
        absorption_spectrum(t, np.zeros(4), kick=1e-3)


def test_spectrum_rejects_zero_kick():
    t = np.linspace(0, 10, 64)
    with pytest.raises(ValueError):
        absorption_spectrum(t, np.zeros(64), kick=0.0)
