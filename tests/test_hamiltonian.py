"""The assembled Kohn-Sham Hamiltonian: Hermiticity, projection, field."""

import numpy as np
import pytest

from oracles import eigenbasis_image, mixed_exchange, real_space_apply, tripleloop_exchange
from repro.grid import PlaneWaveGrid, silicon_cubic_cell
from repro.hamiltonian import Hamiltonian
from repro.hamiltonian.ace import ACEOperator
from repro.hamiltonian.kinetic import KineticOperator
from repro.occupation.sigma import diagonalize_sigma, hermitize, rotate_orbitals, unrotate_orbitals
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
    m = ham.subspace_matrix(grid.to_sphere(phi))
    assert np.abs(m - m.conj().T).max() < 1e-12


def test_apply_output_on_cutoff_sphere(ham, grid):
    """H Phi must stay inside the plane-wave sphere (P H P operator)."""
    rng = default_rng(1)
    phi = grid.random_orbitals(2, rng)
    hphi = ham.apply_real(phi)
    fg = grid.r_to_g(hphi)
    mask = grid.to_flat(grid.gvec.sphere_mask[None])[0]
    assert np.abs(fg[:, ~mask]).max() < 1e-12


def test_operator_hermiticity_cross_elements(ham, grid):
    rng = default_rng(2)
    x = grid.random_orbitals(2, rng)
    hx = ham.apply_real(x)
    a = grid.inner(x[:1], hx[1:2])[0, 0]
    b = grid.inner(hx[:1], x[1:2])[0, 0]
    assert a == pytest.approx(b, abs=1e-12)


def test_hybrid_hamiltonian_hermitian_with_exchange(ham_hse, grid):
    rng = default_rng(3)
    phi = grid.random_orbitals(4, rng)
    phi_t, d = eigenbasis_image(phi, random_hermitian_sigma(4, rng))
    ham_hse.set_exchange_sources(phi_t, d)
    c = grid.to_sphere(phi_t)
    m = ham_hse.subspace_matrix(c, ham_hse.apply(c, phi_t))
    assert np.abs(m - m.conj().T).max() < 1e-10


def test_exchange_modes_agree(ham_hse, grid):
    """``H Phi~`` with the exchange of sigma's eigenbasis image is ``H Phi~``
    without exchange plus ``alpha`` times the Alg. 2 triple loop on the
    matrix, applied to the same rows and projected onto the sphere."""
    rng = default_rng(4)
    phi = grid.random_orbitals(3, rng)
    sigma = hermitize(random_hermitian_sigma(3, rng))
    phi_t, d = eigenbasis_image(phi, sigma)
    ham_hse.set_exchange_sources(phi_t, d)
    a = ham_hse.apply_real(phi_t)
    vx = ham_hse.functional.alpha * tripleloop_exchange(ham_hse.fock, phi, sigma, targets=phi_t)
    b = ham_hse.apply_real(phi_t, include_exchange=False) + grid.to_real(grid.to_sphere(vx))
    assert np.allclose(a, b, atol=1e-9)


def test_dense_diag_refuses_a_foreign_block(ham_hse, grid):
    """The dense exchange acts on the very array given to
    ``set_exchange_sources``, recognized by identity, never by value: an
    equal-valued copy is refused by name, while the sources themselves take
    the self-application (N(N+1)/2 pair transforms, forward and inverse)."""
    rng = default_rng(8)
    n = 6
    phi = grid.random_orbitals(n, rng)
    phi, d = eigenbasis_image(phi, random_hermitian_sigma(n, rng))
    ham_hse.set_exchange_sources(phi, d)
    counters = grid.backend.counters
    snap = counters.snapshot()
    ham_hse.apply_exchange(phi)
    assert counters.since(snap).transforms == n * (n + 1)
    for block in (phi.copy(), phi[:3]):
        with pytest.raises(ValueError, match="set_exchange_sources"):
            ham_hse.apply_real(block)
    with pytest.raises(ValueError, match="set_exchange_sources"):
        ham_hse.apply(grid.to_sphere(phi))  # no real-space image handed in
    # ACE applies to any block
    ham_hse.set_ace(ham_hse.build_ace(phi, d))
    assert ham_hse.apply_real(phi.copy()).shape == phi.shape


def test_ace_mode_matches_dense_on_generators(ham_hse, grid):
    rng = default_rng(5)
    phi = grid.random_orbitals(3, rng)
    phi_t, d = eigenbasis_image(phi, random_hermitian_sigma(3, rng))
    ham_hse.set_exchange_sources(phi_t, d)
    dense = ham_hse.apply_real(phi_t)
    ham_hse.set_ace(ham_hse.build_ace(phi_t, d))
    compressed = ham_hse.apply_real(phi_t)
    assert np.allclose(dense, compressed, atol=1e-8)


def test_clear_exchange(ham_hse, grid):
    rng = default_rng(6)
    phi = grid.random_orbitals(2, rng)
    ham_hse.set_exchange_sources(phi, np.array([1.0, 0.5]))
    ham_hse.clear_exchange()
    assert ham_hse.apply_exchange(phi) is None
    c = grid.to_sphere(phi)
    assert np.array_equal(ham_hse.apply(c), ham_hse.apply(c, include_exchange=False))


def test_semilocal_rejects_exchange_config(ham, grid):
    rng = default_rng(7)
    phi = grid.random_orbitals(2, rng)
    with pytest.raises(ValueError):
        ham.set_exchange_sources(phi, np.ones(2))


# ---------------- kinetic + vector potential ------------------------------------
def test_kinetic_shift_by_vector_potential(grid):
    kin = KineticOperator(grid)
    base = kin.diagonal_g.copy()
    a = np.array([0.02, 0.0, 0.0])
    kin.set_vector_potential(a)
    shifted = kin.diagonal_g
    g = grid.gvec.cartesian.reshape(-1, 3)[grid.sphere_index]
    expected = 0.5 * np.einsum("ij,ij->i", g + a, g + a)
    assert np.allclose(shifted, expected, atol=1e-12)
    kin.set_vector_potential(None)
    assert np.allclose(kin.diagonal_g, base)


def test_kinetic_energy_positive(grid):
    kin = KineticOperator(grid)
    rng = default_rng(8)
    phi = grid.random_orbitals(3, rng)
    assert kin.energy(grid.to_sphere(phi), np.ones(3)) > 0.0


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


def test_set_time_rebuilds_the_kinetic_diagonal_only_when_a_moves(grid):
    """PT-IM sets one midpoint time on every inner iteration: an unchanged
    A(t) keeps the diagonal, a new one rebuilds it to the same bits as a
    fresh operator's."""
    from repro.rt.field import GaussianLaserPulse

    pulse = GaussianLaserPulse(amplitude=0.01, center_fs=0.0, fwhm_fs=1.0)
    ham = Hamiltonian(grid, make_functional("lda"), field=pulse)
    ham.set_time(0.3)
    diag = ham.kinetic.diagonal_g
    ham.set_time(0.3)
    assert ham.kinetic.diagonal_g is diag
    ham.set_time(0.4)
    assert ham.kinetic.diagonal_g is not diag
    fresh = KineticOperator(grid)
    fresh.set_vector_potential(pulse.vector_potential(0.4))
    assert np.array_equal(ham.kinetic.diagonal_g, fresh.diagonal_g)
    assert not np.array_equal(diag, fresh.diagonal_g)


# ---------------- the sphere kernel against the real-space-row oracle --------------
def _rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


@pytest.fixture()
def pulsed(grid):
    """``ham(functional)`` at a time where ``A(t) != 0``, on a non-uniform density."""
    from repro.rt.field import GaussianLaserPulse

    def build(functional):
        pulse = GaussianLaserPulse(amplitude=0.05, center_fs=0.0, fwhm_fs=1.0)
        h = Hamiltonian(grid, make_functional(functional), field=pulse)
        rho = 1.0 + 0.3 * default_rng(20).random(grid.ngrid)
        h.update_density(rho * h.n_electrons / (rho.sum() * grid.dv))
        h.set_time(0.3)
        assert np.linalg.norm(h.kinetic.vector_potential) > 1e-3
        return h

    return build


def test_sphere_kernel_matches_oracle_lda(pulsed, grid):
    ham = pulsed("lda")
    phi = grid.random_orbitals(6, default_rng(21))
    ref = real_space_apply(ham, phi)
    assert _rel_err(ham.apply_real(phi), ref) < 1e-12
    # the kernel itself, with and without the real-space image handed in
    c = grid.to_sphere(phi)
    assert _rel_err(grid.to_real(ham.apply(c)), ref) < 1e-12
    assert _rel_err(grid.to_real(ham.apply(c, phi)), ref) < 1e-12


def test_sphere_kernel_matches_oracle_hse_ace(pulsed, grid):
    ham = pulsed("hse")
    rng = default_rng(22)
    phi = grid.random_orbitals(6, rng)
    sigma = hermitize(random_hermitian_sigma(6, rng))
    w = mixed_exchange(ham.fock, phi, sigma)
    ace_r = ACEOperator.from_dense_action(grid, phi, w)  # real-space rows, as before PR 16
    phi_t, d = eigenbasis_image(phi, sigma)
    ham.set_ace(ham.build_ace(phi_t, d))
    assert ham._ace.xi.shape == (ace_r.rank, grid.npw)
    for block in (phi, grid.random_orbitals(4, rng)):  # generators and foreign targets
        ref = real_space_apply(ham, block, ace=ace_r)
        assert _rel_err(ham.apply_real(block), ref) < 1e-12


def test_sphere_kernel_matches_oracle_hse_dense_diag(pulsed, grid):
    ham = pulsed("hse")
    rng = default_rng(23)
    phi = grid.random_orbitals(6, rng)
    phi, d = eigenbasis_image(phi, random_hermitian_sigma(6, rng))
    ham.set_exchange_sources(phi, d)
    # the dense exchange acts on its own sources only
    ref = real_space_apply(ham, phi)
    assert _rel_err(ham.apply_real(phi), ref) < 1e-12
    assert _rel_err(ham.apply_real(phi, include_exchange=False),
                    real_space_apply(ham, phi, include_exchange=False)) < 1e-12


def test_lda_apply_adds_no_exchange_block(ham, grid, monkeypatch):
    """With no exchange configured ``apply`` neither allocates nor adds an
    ``(N, ngrid)`` zero block: ``apply_exchange`` answers ``None``."""
    c = grid.to_sphere(grid.random_orbitals(3, default_rng(24)))
    assert ham.apply_exchange(grid.to_real(c)) is None
    monkeypatch.setattr(np, "zeros_like", lambda *a, **k: pytest.fail("zero block allocated"))
    ham.apply(c)


def test_build_ace_from_the_eigenbasis_image_is_the_same_operator(ham_hse, grid):
    """``V_ACE = W (Phi* W)^-1 W*`` is invariant under a unitary rotation of
    its generating block: built from the PT-IM midpoint image ``(c~, V_x
    phi~)`` with the eigenvalue vector, and from ``(c, V_x phi)`` with the
    matrix, it acts the same on a foreign sphere block.  The image's rows
    are the dense exchange's own sources, and its self-application is
    ``V_x phi`` rotated."""
    rng = default_rng(25)
    phi = grid.random_orbitals(6, rng)
    sigma = hermitize(random_hermitian_sigma(6, rng))
    w = mixed_exchange(ham_hse.fock, phi, sigma)
    plain = ACEOperator.from_dense_action(grid, grid.to_sphere(phi), grid.to_sphere(w))
    d, q = diagonalize_sigma(sigma)
    c_t = rotate_orbitals(grid.to_sphere(phi), q)
    phi_t = grid.to_real(c_t)
    rotated = ham_hse.build_ace(phi_t, d, c_t)
    assert rotated.rank == plain.rank == 6
    psi = grid.to_sphere(grid.random_orbitals(4, rng))
    assert _rel_err(rotated.apply(psi), plain.apply(psi)) <= 1e-12
    ham_hse.set_exchange_sources(phi_t, d)
    vx = unrotate_orbitals(ham_hse.apply_exchange(phi_t), q)
    assert _rel_err(vx, ham_hse.functional.alpha * w) <= 1e-12
