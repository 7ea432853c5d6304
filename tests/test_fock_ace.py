"""The Fock exchange operator and its two accelerations (Diag, ACE).

These are the paper's central algebraic claims: the triple-loop baseline,
the N^2 grouped form and the sigma-diagonalized form are the SAME
operator; ACE reproduces the dense action exactly on its generating
orbitals.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    eigenbasis_image,
    grouped_exchange,
    mixed_exchange,
    random_hermitian_sigma,
    transforms_since,
    tripleloop_exchange,
)
from repro.grid import PlaneWaveGrid, silicon_cubic_cell, silicon_supercell
from repro.hamiltonian.ace import ACEOperator
from repro.hamiltonian.fock import FockExchangeOperator
from repro.occupation.sigma import diagonalize_sigma, hermitize, rotate_orbitals
from repro.trace import recorder
from repro.utils.rng import default_rng
from repro.xc.kernels import bare_coulomb_kernel, erfc_screened_kernel


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
    a = tripleloop_exchange(fock, phi, sigma)
    b = grouped_exchange(fock, phi, sigma)
    assert np.allclose(a, b, atol=1e-10)


@given(seed=st.integers(min_value=0, max_value=30))
@settings(max_examples=6, deadline=None)
def test_diagonalization_equals_grouped(grid, fock, seed):
    """Sec. IV-A1: the sigma-eigenbasis form is the same operator."""
    phi, sigma = _setup(grid, seed)
    a = mixed_exchange(fock, phi, sigma)
    b = grouped_exchange(fock, phi, hermitize(sigma))
    assert np.allclose(a, b, atol=1e-10)


def test_fft_count_reduction(grid):
    """The instrumented engine confirms N^3 -> N^2 transforms."""
    fock = FockExchangeOperator(grid, erfc_screened_kernel(grid), batch_size=64)
    phi, sigma = _setup(grid, 7, n=4)
    sigma = hermitize(sigma)
    n = 4

    snap = recorder().snapshot()
    tripleloop_exchange(fock, phi, sigma)
    triple = transforms_since(snap)

    snap = recorder().snapshot()
    mixed_exchange(fock, phi, sigma)
    diag = transforms_since(snap)

    assert triple == 2 * n**3  # (k, i, j) loop, forward+inverse each
    # each unordered orbital pair is transformed once, forward+inverse
    assert diag == n * (n + 1)


def test_fock_operator_hermitian(grid, fock):
    phi, sigma = _setup(grid, 3)
    vx = grouped_exchange(fock, phi, hermitize(sigma))
    m = grid.inner(phi, vx)
    assert np.abs(m - m.conj().T).max() < 1e-10


def test_exchange_energy_negative(grid, fock):
    phi, sigma = _setup(grid, 5)
    e = fock.exchange_energy(*eigenbasis_image(phi, sigma), degeneracy=2.0)
    assert e < 0.0


def test_exchange_energy_zero_for_empty_sigma(grid, fock):
    phi, _ = _setup(grid, 6)
    sigma = np.zeros((4, 4), dtype=complex)
    assert fock.exchange_energy(*eigenbasis_image(phi, sigma)) == pytest.approx(0.0, abs=1e-14)


def test_image_exchange_energy_matches_matrix_formula(grid, fock):
    """On sigma's eigenbasis image only the diagonal of the overlap enters:
    for a non-diagonal sigma, so that ``Q`` is no permutation, the dense
    and the ACE energies of ``(phi~, d)`` equal ``(deg/2) Re Tr[sigma O]``
    with ``O_kl = <phi_k|V phi_l>`` on the unrotated block."""
    phi, sigma = _setup(grid, 17, n=6)
    sigma = hermitize(sigma)
    vx = mixed_exchange(fock, phi, sigma)
    d, q = diagonalize_sigma(sigma)
    assert np.abs(q).max() < 0.99  # every eigenvector mixes bands
    phi_t = rotate_orbitals(phi, q)
    ace = ACEOperator.from_dense_action(grid, phi, vx)
    for v_phi, energy in (
        (vx, fock.exchange_energy(phi_t, d, degeneracy=2.0)),
        (ace.apply(phi), ace.exchange_energy(phi_t, d, degeneracy=2.0)),
    ):
        matrix = float(np.trace(sigma @ grid.inner(phi, v_phi)).real)  # deg / 2 = 1
        assert energy < 0.0
        assert energy == pytest.approx(matrix, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError, match="eigenvalues"):
        fock.exchange_energy(phi, sigma)


def test_apply_diag_skips_zero_weights(grid, fock):
    """Empty orbitals contribute nothing: on the occupied rows, the sources
    with the empty ones dropped give the same ``V_x``."""
    phi, _ = _setup(grid, 8)
    w_full = np.array([0.9, 0.0, 0.4, 0.0])
    out_full = fock.apply_diag(phi, w_full)
    out_sub = fock.apply_diag(phi[[0, 2]], w_full[[0, 2]])
    assert np.allclose(out_full[[0, 2]], out_sub, atol=1e-12)


def apply_diag_per_target(fock, phi_src, weights, targets):
    """The per-target loop ``apply_diag`` was before the tile-pair kernel:
    every (active source, target) pair transformed, no symmetry — the oracle."""
    active = np.abs(weights) > 1e-14
    src, w = phi_src[active], weights[active]
    out = np.zeros_like(targets)
    for j, psi_j in enumerate(targets):
        for start in range(0, src.shape[0], fock.batch_size):
            blk = slice(start, start + fock.batch_size)
            pot = fock._pair_potential(src[blk].conj() * psi_j[None, :])
            out[j] -= np.einsum("i,ir,ir->r", w[blk], src[blk], pot)
    return out


def _rel_err(a, ref):
    return np.abs(a - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("n", [3, 10, 24])  # below one tile, ragged last tile, whole tiles
def test_tile_pair_kernel_matches_per_target_oracle(grid, n):
    """Complex orbitals, non-diagonal sigma: the self-application, and
    ``V_x[P] Phi`` rotated back from it, equal the per-target loop."""
    fock = FockExchangeOperator(grid, erfc_screened_kernel(grid))  # tiles of 4
    phi, sigma = _setup(grid, 20 + n, n=n)
    sigma = hermitize(sigma)
    assert np.abs(sigma - np.diag(np.diag(sigma))).max() > 1e-3
    vx_self = mixed_exchange(fock, phi, sigma)
    d, q = diagonalize_sigma(sigma)
    phi_t = q.T @ phi
    ref_t = apply_diag_per_target(fock, phi_t, d, phi_t)
    assert _rel_err(fock.apply_diag(phi_t, d), ref_t) <= 1e-13
    assert _rel_err(vx_self, apply_diag_per_target(fock, phi_t, d, phi)) <= 1e-13


def test_self_application_transform_count(grid):
    """All weights active: N(N+1)/2 Poisson solves, forward+inverse each,
    where the per-target loop takes N^2."""
    fock = FockExchangeOperator(grid, erfc_screened_kernel(grid))
    n = 10
    phi, _ = _setup(grid, 31, n=n)
    w = np.linspace(0.1, 1.0, n)
    snap = recorder().snapshot()
    fock.apply_diag(phi, w)
    assert transforms_since(snap) == n * (n + 1)
    snap = recorder().snapshot()
    apply_diag_per_target(fock, phi, w, phi)
    assert transforms_since(snap) == 2 * n * n


def test_empty_orbitals_are_targets_and_every_pair_is_transformed(grid):
    """Half the weights exactly zero, interleaved so no tile is empty: the
    empty orbitals still get their V_x row and the result is the
    per-target loop's; all weights zero give a zero result.  Whatever the
    weights, the schedule is the same: N(N+1) transforms."""
    fock = FockExchangeOperator(grid, erfc_screened_kernel(grid))
    n = 10
    phi, _ = _setup(grid, 32, n=n)
    w = np.where(np.arange(n) % 2 == 0, np.linspace(0.2, 1.0, n), 0.0)
    snap = recorder().snapshot()
    out = fock.apply_diag(phi, w)
    assert transforms_since(snap) == n * (n + 1)
    ref = apply_diag_per_target(fock, phi, w, phi)
    assert _rel_err(out, ref) <= 1e-13
    assert np.abs(out[1]).max() > 0.0  # an empty orbital is still a target
    snap = recorder().snapshot()
    assert not fock.apply_diag(phi, np.zeros(n)).any()
    assert transforms_since(snap) == n * (n + 1)


def test_self_application_holds_no_second_block():
    """A one-rank ``apply_diag`` peaks less than one ``(N, ngrid)`` block
    above its result: each tile's sources are weighted where a tile pair
    uses them, and the rank works on the caller's rows, not a copy.  A
    batch of 4 pairs keeps one tile pair's scratch well below a block, so
    what is measured is whether any block besides the result is held."""
    grid = PlaneWaveGrid(silicon_supercell([2, 1, 1]), ecut=3.0)
    fock = FockExchangeOperator(grid, erfc_screened_kernel(grid), batch_size=4)
    phi = grid.random_orbitals(24, np.random.default_rng(41))
    w = np.linspace(0.1, 1.0, 24)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = fock.apply_diag(phi, w)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < phi.nbytes


def test_kernel_must_be_real_and_even(grid):
    """The conjugate reuse pot_ba = conj(pot_ab) needs K real, K(-G) = K(G)."""
    for kernel in (erfc_screened_kernel(grid), bare_coulomb_kernel(grid)):
        FockExchangeOperator(grid, kernel)
    one_sided = erfc_screened_kernel(grid)
    box = grid.to_box(one_sided)
    box[1, 0, 0] *= 2.0  # G = +b1 only; its partner -b1 sits at index -1
    with pytest.raises(ValueError, match=r"K\(-G\) = K\(G\)"):
        FockExchangeOperator(grid, one_sided)
    with pytest.raises(ValueError, match="real"):
        FockExchangeOperator(grid, erfc_screened_kernel(grid) * (1.0 + 0.5j))


def test_batch_size_invariance(grid):
    phi, sigma = _setup(grid, 9)
    sigma = hermitize(sigma)
    f1 = FockExchangeOperator(grid, erfc_screened_kernel(grid), batch_size=1)
    f8 = FockExchangeOperator(grid, erfc_screened_kernel(grid), batch_size=8)
    a = grouped_exchange(f1, phi, sigma)
    b = grouped_exchange(f8, phi, sigma)
    assert np.allclose(a, b, atol=1e-12)


# ---------------- ACE ------------------------------------------------------------
def test_ace_exact_on_generating_orbitals(grid, fock):
    """Lin's construction: V_ACE phi_i == V_x phi_i for the generators."""
    phi, sigma = _setup(grid, 11)
    sigma = hermitize(sigma)
    w = mixed_exchange(fock, phi, sigma)
    ace = ACEOperator.from_dense_action(grid, phi, w)
    assert np.allclose(ace.apply(phi), w, atol=1e-9)


def test_ace_negative_semidefinite(grid, fock):
    """<psi|V_ACE|psi> <= 0 for any psi — by construction -xi xi*."""
    phi, sigma = _setup(grid, 12)
    sigma = hermitize(sigma)
    w = mixed_exchange(fock, phi, sigma)
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
    w = mixed_exchange(fock, phi, sigma)
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
    phi_t, d = eigenbasis_image(phi, sigma)
    w = fock.apply_diag(phi_t, d)
    ace = ACEOperator.from_dense_action(grid, phi_t, w)
    e_dense = fock.exchange_energy(phi_t, d, degeneracy=2.0, vx_phi=w)
    e_ace = ace.exchange_energy(phi_t, d, degeneracy=2.0)
    assert e_ace == pytest.approx(e_dense, rel=1e-9)
