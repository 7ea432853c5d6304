"""Electrostatics (Poisson, Ewald) and exchange-correlation functionals."""

import math

import numpy as np
import pytest
import scipy.special

import repro.hartree.ewald as ewald_module
from repro.grid import PlaneWaveGrid, silicon_cubic_cell, silicon_supercell
from repro.grid.cell import UnitCell
from repro.hartree.ewald import ewald_energy
from repro.hartree.poisson import hartree_energy, hartree_potential, solve_poisson_g
from repro.utils.rng import default_rng
from repro.xc.kernels import bare_coulomb_kernel, erfc_screened_kernel
from repro.xc.lda import lda_exchange, lda_xc, pz81_correlation


@pytest.fixture(scope="module")
def grid():
    return PlaneWaveGrid(silicon_cubic_cell(), ecut=3.0)


# ---------------- Poisson ------------------------------------------------------
def test_hartree_of_gaussian_matches_analytic(grid):
    """V_H of a periodic Gaussian charge: checked in G space analytically."""
    # build a normalized Gaussian density at the cell center
    from repro.observables.dipole import cell_centered_coordinates

    coords = cell_centered_coordinates(grid)
    r2 = np.einsum("ij,ij->i", coords, coords)
    s = 1.0
    rho = np.exp(-r2 / (2 * s * s))
    rho /= rho.sum() * grid.dv
    v = hartree_potential(grid, rho)
    # Poisson in G space: V(G) = 4 pi rho(G) / G^2; verify via Laplacian:
    # -∇² V = 4π rho  (projected onto the grid's G components)
    vg = grid.r_to_g(v.astype(complex))
    g2 = grid.to_flat(grid.gvec.g2[None])[0]
    lap = grid.g_to_r(vg * g2).real
    rho_g = grid.r_to_g(rho.astype(complex))
    rho_g[0] = 0.0  # jellium-compensated
    rho_nozero = grid.g_to_r(rho_g).real
    assert np.allclose(lap, 4.0 * math.pi * rho_nozero, atol=1e-8 * np.abs(rho).max())


def test_hartree_energy_positive(grid):
    rng = default_rng(0)
    rho = np.abs(rng.standard_normal(grid.ngrid))
    assert hartree_energy(grid, rho) > 0.0


def test_hartree_energy_scales_quadratically(grid):
    rng = default_rng(1)
    rho = np.abs(rng.standard_normal(grid.ngrid))
    e1 = hartree_energy(grid, rho)
    e2 = hartree_energy(grid, 2.0 * rho)
    assert e2 == pytest.approx(4.0 * e1, rel=1e-10)


def test_hartree_kernel_is_made_once_per_grid(grid, monkeypatch):
    """The Coulomb kernel is the grid's, made on first use and read-only: a
    later solve reads no G-vector table, and the potential is that of
    ``4π/G²`` (G = 0 dropped) to the bit."""
    rho = np.abs(default_rng(3).standard_normal(grid.ngrid))
    g2 = grid.gvec.g2.ravel()
    kernel = np.zeros_like(g2)
    kernel[g2 > 1e-12] = 4.0 * math.pi / g2[g2 > 1e-12]
    expected = grid.g_to_r(grid.r_to_g(rho.astype(complex)) * kernel).real
    first = hartree_potential(grid, rho)
    assert not grid.coulomb_kernel.flags.writeable
    monkeypatch.setattr(grid, "gvec", None)
    assert np.array_equal(hartree_potential(grid, rho), first)
    assert np.array_equal(first, expected)


def test_solve_poisson_batched(grid):
    rng = default_rng(2)
    rho = rng.standard_normal((3, grid.ngrid)).astype(complex)
    batched = solve_poisson_g(grid, rho)
    for i in range(3):
        assert np.allclose(batched[i], solve_poisson_g(grid, rho[i]))


# ---------------- Ewald -------------------------------------------------------
def test_ewald_eta_independence():
    """The Ewald total must not depend on the splitting parameter."""
    cell = silicon_cubic_cell()
    e1 = ewald_energy(cell, eta=0.08)
    e2 = ewald_energy(cell, eta=0.2)
    e3 = ewald_energy(cell, eta=0.35)
    assert e1 == pytest.approx(e2, abs=1e-7)
    assert e2 == pytest.approx(e3, abs=1e-7)


def test_ewald_negative_for_neutral_crystal():
    assert ewald_energy(silicon_cubic_cell()) < 0.0


def test_ewald_extensive_under_supercell():
    cell = silicon_cubic_cell()
    sc = cell.supercell((2, 1, 1))
    assert ewald_energy(sc) == pytest.approx(2.0 * ewald_energy(cell), rel=1e-8)


def test_ewald_nacl_like_madelung():
    """Two opposite... (same-charge CsCl-style lattice check via scaling):
    doubling the lattice constant scales the energy by 1/2 (pure Coulomb)."""
    a = 8.0
    cell1 = UnitCell(np.eye(3) * a, ("H",), np.zeros((1, 3)))
    cell2 = UnitCell(np.eye(3) * 2 * a, ("H",), np.zeros((1, 3)))
    assert ewald_energy(cell2) == pytest.approx(0.5 * ewald_energy(cell1), rel=1e-8)


def test_ewald_erfc_matches_scipy_on_the_shipped_cells(monkeypatch):
    """``math.erfc``, elementwise, is ``scipy.special.erfc`` within 1e-15
    absolute (measured 1.1e-16) on every real-space argument the Ewald sums
    of the two shipped cells evaluate, and within 1e-13 relative down the
    1e-10 tail (measured 1.3e-14)."""
    seen = []
    erfc = ewald_module._erfc
    monkeypatch.setattr(ewald_module, "_erfc", lambda x: seen.append(x) or erfc(x))
    monkeypatch.setattr(ewald_module, "_computed", {})
    for cell in (silicon_cubic_cell(), silicon_supercell((2, 1, 1))):
        ewald_energy(cell)
    x = np.concatenate(seen)
    assert x.size > 10_000
    ours, ref = erfc(x), scipy.special.erfc(x)
    assert np.abs(ours - ref).max() <= 1e-15
    assert (np.abs(ours - ref) / ref).max() <= 1e-13


# ---------------- LDA ----------------------------------------------------------
def test_slater_exchange_value():
    """eps_x(rho) = -(3/4)(3 rho/pi)^{1/3}."""
    rho = np.array([0.5])
    eps, v = lda_exchange(rho)
    expected = -0.75 * (3.0 / math.pi) ** (1.0 / 3.0) * 0.5 ** (1.0 / 3.0)
    assert eps[0] == pytest.approx(expected, rel=1e-12)
    assert v[0] == pytest.approx(4.0 / 3.0 * expected, rel=1e-12)


def test_pz81_high_density_reference():
    """At rs = 0.5 the PZ81 unpolarized eps_c ~ -0.0759 Ha."""
    rs = 0.5
    rho = 3.0 / (4.0 * math.pi * rs**3)
    eps, _ = pz81_correlation(np.array([rho]))
    assert eps[0] == pytest.approx(-0.0759, abs=2e-3)


def test_pz81_low_density_reference():
    """At rs = 10 the PZ81 eps_c ~ -0.0186 Ha."""
    rs = 10.0
    rho = 3.0 / (4.0 * math.pi * rs**3)
    eps, _ = pz81_correlation(np.array([rho]))
    assert eps[0] == pytest.approx(-0.0186, abs=1e-3)


def test_potential_is_derivative_of_energy_density():
    """v = d(rho eps)/d(rho), checked by finite differences."""
    rho = np.linspace(0.05, 2.0, 17)
    h = 1e-6
    eps_p, _ = lda_xc(rho + h)
    eps_m, _ = lda_xc(rho - h)
    _, v = lda_xc(rho)
    numeric = ((rho + h) * eps_p - (rho - h) * eps_m) / (2 * h)
    assert np.allclose(v, numeric, rtol=1e-5)


def test_pz81_continuous_at_rs1():
    """PZ81 pieces meet near rs=1 without a large jump."""
    rho_hi = 3.0 / (4.0 * math.pi * 0.999**3)
    rho_lo = 3.0 / (4.0 * math.pi * 1.001**3)
    e_hi, _ = pz81_correlation(np.array([rho_hi]))
    e_lo, _ = pz81_correlation(np.array([rho_lo]))
    assert abs(e_hi[0] - e_lo[0]) < 2e-3


# ---------------- exchange kernels ------------------------------------------------
def test_screened_kernel_g0_finite(grid):
    k = erfc_screened_kernel(grid, omega=0.11)
    assert k[0] == pytest.approx(math.pi / 0.11**2, rel=1e-12)


def test_bare_kernel_g0_zeroed(grid):
    k = bare_coulomb_kernel(grid)
    assert k[0] == 0.0


def test_screened_below_bare(grid):
    ks = erfc_screened_kernel(grid)
    kb = bare_coulomb_kernel(grid)
    nz = kb > 0
    assert np.all(ks[nz] <= kb[nz] + 1e-12)


def test_screened_approaches_bare_at_high_g(grid):
    ks = erfc_screened_kernel(grid, omega=0.11)
    kb = bare_coulomb_kernel(grid)
    g2 = grid.to_flat(grid.gvec.g2[None])[0]
    high = g2 > 0.9 * g2.max()
    assert np.allclose(ks[high], kb[high], rtol=1e-6)
