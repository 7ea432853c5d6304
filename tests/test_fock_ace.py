"""The Fock exchange operator and its two accelerations (Diag, ACE).

These are the paper's central algebraic claims: the triple-loop baseline,
the N^2 grouped form and the sigma-diagonalized form are the SAME
operator; ACE reproduces the dense action exactly on its generating
orbitals.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid import PlaneWaveGrid, silicon_cubic_cell
from repro.hamiltonian.ace import ACEOperator
from repro.hamiltonian.fock import FockExchangeOperator
from repro.occupation.sigma import hermitize
from repro.utils.rng import default_rng
from repro.xc.kernels import erfc_screened_kernel
from repro.utils.testing import random_hermitian_sigma


@pytest.fixture(scope="module")
def grid():
    return PlaneWaveGrid(silicon_cubic_cell(), ecut=2.0)


@pytest.fixture(scope="module")
def fock(grid):
    return FockExchangeOperator(grid, erfc_screened_kernel(grid), batch_size=3)


def _setup(grid, seed, n=4):
    rng = np.random.default_rng(seed)
    phi = grid.random_orbitals(n, rng)
    sigma = random_hermitian_sigma(n, rng)
    return phi, sigma


@given(seed=st.integers(min_value=0, max_value=30))
@settings(max_examples=6, deadline=None)
def test_tripleloop_equals_grouped(grid, fock, seed):
    """Alg. 2 (N^3 FFTs) == grouped (N^2 FFTs) mixed-state evaluation."""
    phi, sigma = _setup(grid, seed)
    a = fock.apply_mixed_tripleloop(phi, sigma)
    b = fock.apply_mixed_grouped(phi, sigma)
    assert np.allclose(a, b, atol=1e-10)


@given(seed=st.integers(min_value=0, max_value=30))
@settings(max_examples=6, deadline=None)
def test_diagonalization_equals_grouped(grid, fock, seed):
    """Sec. IV-A1: the sigma-eigenbasis form is the same operator."""
    phi, sigma = _setup(grid, seed)
    a, d, q = fock.apply_mixed_via_diagonalization(phi, sigma)
    b = fock.apply_mixed_grouped(phi, hermitize(sigma))
    assert np.allclose(a, b, atol=1e-10)


def test_fft_count_reduction(grid):
    """The instrumented engine confirms N^3 -> N^2 transforms."""
    fock = FockExchangeOperator(grid, erfc_screened_kernel(grid), batch_size=64)
    phi, sigma = _setup(grid, 7, n=4)
    sigma = hermitize(sigma)
    eng = grid.backend
    n = 4

    snap = eng.counters.snapshot()
    fock.apply_mixed_tripleloop(phi, sigma)
    triple = eng.counters.since(snap).transforms

    snap = eng.counters.snapshot()
    fock.apply_mixed_via_diagonalization(phi, sigma)
    diag = eng.counters.since(snap).transforms

    assert triple == 2 * n**3  # (k, i, j) loop, forward+inverse each
    assert diag <= 2 * n**2  # weights may prune empty sources
    assert diag >= 2 * n  # sanity


def test_fock_operator_hermitian(grid, fock):
    phi, sigma = _setup(grid, 3)
    vx = fock.apply_mixed_grouped(phi, hermitize(sigma))
    m = grid.inner(phi, vx)
    assert np.abs(m - m.conj().T).max() < 1e-10


def test_exchange_energy_negative(grid, fock):
    phi, sigma = _setup(grid, 5)
    e = fock.exchange_energy(phi, hermitize(sigma), degeneracy=2.0)
    assert e < 0.0


def test_exchange_energy_zero_for_empty_sigma(grid, fock):
    phi, _ = _setup(grid, 6)
    sigma = np.zeros((4, 4), dtype=complex)
    assert fock.exchange_energy(phi, sigma) == pytest.approx(0.0, abs=1e-14)


def test_apply_diag_skips_zero_weights(grid, fock):
    """Empty orbitals contribute nothing (and cost nothing)."""
    phi, _ = _setup(grid, 8)
    w_full = np.array([0.9, 0.0, 0.4, 0.0])
    out_full = fock.apply_diag(phi, w_full, phi)
    out_sub = fock.apply_diag(phi[[0, 2]], w_full[[0, 2]], phi)
    assert np.allclose(out_full, out_sub, atol=1e-12)


def test_batch_size_invariance(grid):
    phi, sigma = _setup(grid, 9)
    sigma = hermitize(sigma)
    f1 = FockExchangeOperator(grid, erfc_screened_kernel(grid), batch_size=1)
    f8 = FockExchangeOperator(grid, erfc_screened_kernel(grid), batch_size=8)
    a = f1.apply_mixed_grouped(phi, sigma)
    b = f8.apply_mixed_grouped(phi, sigma)
    assert np.allclose(a, b, atol=1e-12)


# ---------------- ACE ------------------------------------------------------------
def test_ace_exact_on_generating_orbitals(grid, fock):
    """Lin's construction: V_ACE phi_i == V_x phi_i for the generators."""
    phi, sigma = _setup(grid, 11)
    sigma = hermitize(sigma)
    w, _, _ = fock.apply_mixed_via_diagonalization(phi, sigma, targets=phi)
    ace = ACEOperator.from_dense_action(grid, phi, w)
    assert np.allclose(ace.apply(phi), w, atol=1e-9)


def test_ace_negative_semidefinite(grid, fock):
    """<psi|V_ACE|psi> <= 0 for any psi — by construction -xi xi*."""
    phi, sigma = _setup(grid, 12)
    sigma = hermitize(sigma)
    w, _, _ = fock.apply_mixed_via_diagonalization(phi, sigma, targets=phi)
    ace = ACEOperator.from_dense_action(grid, phi, w)
    rng = default_rng(13)
    psi = grid.random_orbitals(3, rng)
    vals = np.diag(grid.inner(psi, ace.apply(psi))).real
    assert np.all(vals <= 1e-12)


def test_ace_rank_adaptive(grid, fock):
    """Rank tracks the number of occupied source orbitals."""
    rng = default_rng(14)
    phi = grid.random_orbitals(5, rng)
    sigma = np.diag([1.0, 1.0, 0.0, 0.0, 0.0]).astype(complex)
    w, _, _ = fock.apply_mixed_via_diagonalization(phi, sigma, targets=phi)
    ace = ACEOperator.from_dense_action(grid, phi, w)
    # the operator acts within the 2-orbital occupied span: rank <= 5 but
    # energy content concentrated; exactness still holds
    assert 1 <= ace.rank <= 5
    assert np.allclose(ace.apply(phi), w, atol=1e-9)


def test_ace_zero_action_gives_zero_operator(grid):
    rng = default_rng(15)
    phi = grid.random_orbitals(3, rng)
    ace = ACEOperator.from_dense_action(grid, phi, np.zeros_like(phi))
    assert ace.rank == 0
    assert np.allclose(ace.apply(phi), 0.0)


def test_ace_exchange_energy_matches_dense_on_generators(grid, fock):
    phi, sigma = _setup(grid, 16)
    sigma = hermitize(sigma)
    w, _, _ = fock.apply_mixed_via_diagonalization(phi, sigma, targets=phi)
    ace = ACEOperator.from_dense_action(grid, phi, w)
    e_dense = fock.exchange_energy(phi, sigma, degeneracy=2.0, vx_phi=w)
    e_ace = ace.exchange_energy(phi, sigma, degeneracy=2.0)
    assert e_ace == pytest.approx(e_dense, rel=1e-9)
