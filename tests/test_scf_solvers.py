"""Eigensolver, mixers, and the ground-state SCF driver."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from make_golden import CONFIGS
from oracles import _generalized_lowest, real_space_apply, real_space_davidson, real_space_teter
from repro.api import Simulation
from repro.grid import PlaneWaveGrid, silicon_cubic_cell, silicon_supercell
from repro.hamiltonian import Hamiltonian
from repro.observables.energy import td_total_energy
from repro.scf import groundstate
from repro.scf.eigensolver import (
    DavidsonResult,
    _normalize_rows,
    canonical_orthonormalize,
    davidson,
    lowdin_orthonormalize,
    teter_preconditioner,
)
from repro.scf.groundstate import default_nbands
from repro.scf.mixing import AndersonMixer, KerkerMixer, LinearMixer
from repro.utils.rng import default_rng
from repro.api.components import build as build_component
from repro.xc.hybrid import HybridFunctional, SemilocalFunctional


@pytest.fixture(scope="module")
def grid():
    return PlaneWaveGrid(silicon_cubic_cell(), ecut=2.5)


@pytest.fixture(scope="module")
def ham(grid):
    h = Hamiltonian(grid, SemilocalFunctional())
    rho = np.full(grid.ngrid, h.n_electrons / grid.cell.volume)
    h.update_density(rho)
    return h


# ---------------- orthonormalization --------------------------------------------
def test_lowdin_orthonormal(grid):
    rng = default_rng(0)
    phi = grid.random_orbitals(5, rng)
    phi = phi + 0.1 * grid.random_orbitals(5, rng)
    out = lowdin_orthonormalize(grid, phi)
    s = grid.inner(out, out)
    assert np.abs(s - np.eye(5)).max() < 1e-10


def test_lowdin_closest_orthonormalization(grid):
    """Löwdin leaves an already-orthonormal block untouched."""
    rng = default_rng(1)
    phi = grid.random_orbitals(4, rng)
    out = lowdin_orthonormalize(grid, phi)
    assert np.allclose(out, phi, atol=1e-10)


def test_canonical_drops_dependent_rows(grid):
    rng = default_rng(2)
    phi = grid.random_orbitals(3, rng)
    stacked = np.vstack([phi, phi[0:1]])  # duplicate row
    out = canonical_orthonormalize(grid, stacked)
    assert out.shape[0] == 3
    s = grid.inner(out, out)
    assert np.abs(s - np.eye(3)).max() < 1e-8


# ---------------- Davidson --------------------------------------------------------
def test_davidson_matches_dense(grid, ham):
    """Eigenvalues agree with a dense diagonalization in the sphere basis."""
    # column j of H in the sphere basis is H applied to the j-th unit sphere block
    h_dense = ham.apply(np.eye(grid.npw, dtype=complex)).T
    ref = np.linalg.eigvalsh(0.5 * (h_dense + h_dense.conj().T))

    rng = default_rng(3)
    phi = grid.to_sphere(grid.random_orbitals(8, rng))
    res = davidson(grid, ham.apply, phi, tol=1e-8, max_iter=150, nconv=6)
    assert np.allclose(res.eigenvalues[:6], ref[:6], atol=1e-7)


def test_davidson_residuals_converged(grid, ham):
    rng = default_rng(4)
    phi = grid.to_sphere(grid.random_orbitals(8, rng))
    res = davidson(grid, ham.apply, phi, tol=1e-7, max_iter=150, nconv=6)
    assert res.converged
    assert res.residual_norms[:6].max() < 1e-7


def test_davidson_output_orthonormal(grid, ham):
    rng = default_rng(5)
    phi = grid.to_sphere(grid.random_orbitals(6, rng))
    res = davidson(grid, ham.apply, phi, tol=1e-6, max_iter=80)
    assert res.orbitals.shape == (6, grid.npw)
    for block in (res.orbitals, grid.to_real(res.orbitals)):
        s = grid.inner(block, block)
        assert np.abs(s - np.eye(6)).max() < 1e-9


def test_davidson_warm_start_fast(grid):
    # a symmetry-broken Hamiltonian (random perturbation lifts the cubic
    # cell's degenerate multiplets, which otherwise admit stuck interior
    # bands when the block cuts a cluster)
    rng = default_rng(6)
    h = Hamiltonian(grid, SemilocalFunctional())
    h.update_density(np.full(grid.ngrid, h.n_electrons / grid.cell.volume))
    h.v_eff = h.v_eff + 0.05 * rng.standard_normal(grid.ngrid)
    phi = grid.to_sphere(grid.random_orbitals(6, rng))
    res1 = davidson(grid, h.apply, phi, tol=1e-4, max_iter=200, nconv=4)
    assert res1.converged
    res2 = davidson(grid, h.apply, res1.orbitals, tol=1e-4, max_iter=200, nconv=4)
    # restarting from a converged block must be far cheaper than cold
    assert res2.iterations <= max(3, res1.iterations // 3)


def reapplying_davidson(grid, apply_h, phi0, tol=1e-7, max_iter=60, nconv=None):
    """The pre-PR-14 ``davidson``: applies ``H`` to ``X`` and then to all
    of ``[X, t]`` every iteration and Löwdin-orthonormalizes on the grid
    (real-space rows throughout, as the solver was then).
    Kept as the oracle for the carried-``H X`` formulation."""
    phi = lowdin_orthonormalize(grid, phi0.copy())
    nb = phi.shape[0]
    nconv = nb if nconv is None else min(nconv, nb)
    eig = np.zeros(nb)
    res_norms = np.full(nb, np.inf)
    for it in range(1, max_iter + 1):
        h_phi = apply_h(phi)
        h_sub = grid.inner(phi, h_phi)
        h_sub = 0.5 * (h_sub + h_sub.conj().T)
        eig, vec = np.linalg.eigh(h_sub)
        phi = np.ascontiguousarray(vec.T @ phi)
        h_phi = np.ascontiguousarray(vec.T @ h_phi)
        resid = h_phi - eig[:, None] * phi
        res_norms = np.sqrt(np.einsum("ij,ij->i", resid.conj(), resid).real * grid.dv)
        if res_norms[:nconv].max() < tol:
            return DavidsonResult(eig, phi, res_norms, it, True)
        phi_g = grid.r_to_g(phi)
        t_diag = grid.to_flat(grid.gvec.kinetic[None])[0]
        ekin_band = grid.cell.volume * np.einsum("ng,g,ng->n", phi_g.conj(), t_diag, phi_g).real
        corr_g = real_space_teter(grid, grid.r_to_g(resid), np.maximum(ekin_band, 0.1))
        grid.apply_cutoff(corr_g)
        corr = grid.g_to_r(corr_g)
        corr -= grid.inner(phi, corr).T @ phi
        corr = _normalize_rows(corr, grid.dv)
        if corr.shape[0] == 0:
            return DavidsonResult(eig, phi, res_norms, it, res_norms[:nconv].max() < tol)
        corr = canonical_orthonormalize(grid, corr, drop_tol=1e-8)
        corr -= grid.inner(phi, corr).T @ phi
        basis = np.vstack([phi, corr])
        h_basis = apply_h(basis)
        h_sub2 = grid.inner(basis, h_basis)
        h_sub2 = 0.5 * (h_sub2 + h_sub2.conj().T)
        s_sub2 = grid.inner(basis, basis)
        s_sub2 = 0.5 * (s_sub2 + s_sub2.conj().T)
        _, vec2 = _generalized_lowest(h_sub2, s_sub2, nb)
        phi = lowdin_orthonormalize(grid, np.ascontiguousarray(vec2.T @ basis))
    return DavidsonResult(eig, phi, res_norms, max_iter, False)


class RowCountingH:
    """An ``H`` application that records the row count of every block it is given."""

    def __init__(self, apply_h):
        self.apply_h, self.rows = apply_h, []

    def __call__(self, block):
        self.rows.append(block.shape[0])
        return self.apply_h(block)


@pytest.fixture(scope="module")
def split_ham(grid):
    """LDA Hamiltonian with the cubic cell's degenerate multiplets lifted,
    so an iteration count does not hang on round-off inside a cluster."""
    h = Hamiltonian(grid, SemilocalFunctional())
    h.update_density(np.full(grid.ngrid, h.n_electrons / grid.cell.volume))
    h.v_eff = h.v_eff + 0.05 * default_rng(6).standard_normal(grid.ngrid)
    return h


def _assert_solves_what_the_oracle_solved(new, old, new_rows, old_rows, nconv, tol):
    """What must hold between ``davidson`` and a retired solver from the same start.

    The active set changes the path, so iteration-for-iteration equality is
    gone.  Both meet the stopping test; a Ritz value whose residual is below
    ``tol`` lies within ``tol^2 / gap`` of its eigenvalue (``gap`` its distance
    to the rest of the spectrum), so the two answers differ by at most twice
    that; and ``H`` sees strictly fewer rows.  Soft locking searches a smaller
    space, which may cost an iteration or two (measured: 0 or 1).
    """
    assert new.converged and old.converged
    assert new.residual_norms[:nconv].max() < tol
    assert old.residual_norms[:nconv].max() < tol
    e = old.eigenvalues
    gap = min(np.abs(e[i] - np.delete(e, i)).min() for i in range(nconv))
    assert np.abs(new.eigenvalues - e)[:nconv].max() < 2.0 * tol**2 / gap + 1e-12
    assert new.iterations <= old.iterations + 2
    assert sum(new_rows) < sum(old_rows)


@pytest.mark.parametrize("nb, nconv, tol", [(8, 6, 1e-7), (16, 12, 1e-7)])
def test_davidson_matches_reapplying_oracle(grid, split_ham, nb, nconv, tol):
    phi0 = grid.random_orbitals(nb, default_rng(11))
    new_h = RowCountingH(split_ham.apply)
    old_h = RowCountingH(lambda block: real_space_apply(split_ham, block))
    new = davidson(grid, new_h, grid.to_sphere(phi0), tol=tol, max_iter=200, nconv=nconv)
    old = reapplying_davidson(grid, old_h, phi0, tol=tol, max_iter=200, nconv=nconv)
    _assert_solves_what_the_oracle_solved(new, old, new_h.rows, old_h.rows, nconv, tol)
    # H sees the entry block, then one correction block per unconverged
    # iteration; the oracle sees X and [X, t], ~3 nb rows per iteration
    assert new_h.rows[0] == nb and max(new_h.rows) <= nb
    assert len(new_h.rows) == new.iterations
    assert sum(old_h.rows) > 2.5 * sum(new_h.rows)


def test_davidson_expands_only_unconverged_and_guard_bands(grid, split_ham):
    """Iteration k hands ``H`` one row per band whose residual is still
    ``>= tol`` plus one per guard band.  A run capped at k iterations
    shares its first k with every longer one and returns the residuals its
    last iteration started from."""
    nb, nconv, tol = 16, 12, 1e-5
    phi0 = grid.to_sphere(grid.random_orbitals(nb, default_rng(13)))
    full = davidson(grid, split_ham.apply, phi0, tol=tol, max_iter=200, nconv=nconv)
    assert full.converged
    locked = []
    for k in range(1, full.iterations):
        h = RowCountingH(split_ham.apply)
        res = davidson(grid, h, phi0, tol=tol, max_iter=k, nconv=nconv)
        unconverged = int((res.residual_norms[:nconv] >= tol).sum())
        assert h.rows[0] == nb and len(h.rows) == k + 1
        assert h.rows[k] == unconverged + (nb - nconv)
        locked.append(nconv - unconverged)
    assert locked[0] == 0 and max(locked) >= nconv // 2  # the set does shrink


def test_davidson_two_decompositions_per_iteration(grid, split_ham, monkeypatch):
    """Löwdin and the projected ``N x N`` problem on entry, then the
    correction Gram matrix and the expanded projected Hamiltonian per
    iteration: no overlap of ``[X; t]`` is decomposed, nor is ``X``
    re-diagonalized after a restart."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape[0]) or eigh(a))
    nb, iters = 8, 7
    phi0 = grid.to_sphere(grid.random_orbitals(nb, default_rng(12)))
    res = davidson(grid, split_ham.apply, phi0, tol=0.0, max_iter=iters)
    assert res.iterations == iters and not res.converged
    assert calls == [nb, nb] + [nb, 2 * nb] * iters


def test_davidson_orthonormal_after_120_restarts(grid, split_ham):
    """Nothing re-orthonormalizes ``X`` inside the loop: it stays orthonormal
    because every restart is a rotation by orthonormal Ritz vectors."""
    phi0 = grid.to_sphere(grid.random_orbitals(8, default_rng(12)))
    res = davidson(grid, split_ham.apply, phi0, tol=0.0, max_iter=120)
    assert res.iterations == 120
    s = grid.inner(res.orbitals, res.orbitals)
    assert np.abs(s - np.eye(8)).max() < 1e-12


def test_davidson_carried_h_phi_does_not_drift(grid, split_ham):
    """``H X`` is carried through 40 restarts and never recomputed.  Runs
    capped at 40 and at 41 iterations share their first 40, so the Ritz
    values and residuals of iteration 41 (both first order in an error of
    the carried product) must be the ones a fresh ``H X`` gives on the
    block the 40-iteration run returns."""
    phi0 = grid.to_sphere(grid.random_orbitals(8, default_rng(12)))
    r40 = davidson(grid, split_ham.apply, phi0, tol=0.0, max_iter=40)
    r41 = davidson(grid, split_ham.apply, phi0, tol=0.0, max_iter=41)
    assert not r41.converged and r41.iterations == 41
    phi = r40.orbitals
    h_phi = split_ham.apply(phi)
    scale = np.sqrt(np.einsum("ij,ij->", h_phi.conj(), h_phi).real * grid.dv)
    h_sub = grid.inner(phi, h_phi)
    eig, vec = np.linalg.eigh(0.5 * (h_sub + h_sub.conj().T))
    resid = vec.T @ h_phi - eig[:, None] * (vec.T @ phi)
    res_norms = np.sqrt(np.einsum("ij,ij->i", resid.conj(), resid).real * grid.dv)
    assert np.abs(r41.eigenvalues - eig).max() < 1e-10 * scale
    assert np.abs(r41.residual_norms - res_norms).max() < 1e-10 * scale


@pytest.mark.parametrize("tol", [1e-5, 1e-7])
def test_sphere_davidson_matches_real_space_oracle(grid, split_ham, tol):
    """Same start, same tolerance: the sphere-block solver finds the lowest
    eigenvalues the real-space-row solver it replaced found, with fewer
    rows through ``H``."""
    nb = 12  # gated bands; four guard bands keep the cut out of a cluster
    phi0 = grid.random_orbitals(nb + 4, default_rng(13))
    new_h = RowCountingH(split_ham.apply)
    old_h = RowCountingH(lambda block: real_space_apply(split_ham, block))
    new = davidson(grid, new_h, grid.to_sphere(phi0), tol=tol, max_iter=200, nconv=nb)
    old = real_space_davidson(grid, old_h, phi0, tol=tol, max_iter=200, nconv=nb)
    _assert_solves_what_the_oracle_solved(new, old, new_h.rows, old_h.rows, nb, tol)


def test_teter_horner_matches_power_form(grid):
    rng = default_rng(14)
    c = grid.to_sphere(grid.random_orbitals(5, rng))
    ekin = rng.uniform(0.05, 3.0, size=5)
    full = np.zeros((5, grid.ngrid), dtype=complex)
    full[:, grid.sphere_index] = c
    ref = real_space_teter(grid, full, ekin)[:, grid.sphere_index]
    np.testing.assert_allclose(teter_preconditioner(grid, c, ekin), ref, rtol=1e-14, atol=0.0)


# ---------------- mixers ----------------------------------------------------------
def _linear_fixed_point(n=40, seed=0, contraction=0.9):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a *= contraction / np.abs(np.linalg.eigvals(a)).max()
    b = rng.standard_normal(n)
    x_star = np.linalg.solve(np.eye(n) - a, b)
    return a, b, x_star


def test_anderson_beats_linear_on_contraction():
    a, b, x_star = _linear_fixed_point()
    errs = {}
    for name, mixer in (("lin", LinearMixer(0.5)), ("and", AndersonMixer(history=8, beta=0.5))):
        x = np.zeros_like(b)
        for _ in range(60):
            x = mixer.mix(x, a @ x + b)
        errs[name] = np.linalg.norm(x - x_star)
    assert errs["and"] < 1e-3
    assert errs["and"] < errs["lin"] * 0.1


def test_anderson_complex_input():
    """Anderson accelerates genuinely complex linear fixed points."""
    rng = np.random.default_rng(1)
    n = 30
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a *= 0.8 / np.abs(np.linalg.eigvals(a)).max()
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x_star = np.linalg.solve(np.eye(n) - a, b)
    mixer = AndersonMixer(history=6, beta=0.5)
    x = np.zeros(n, dtype=complex)
    for _ in range(60):
        x = mixer.mix(x, a @ x + b)
    assert np.linalg.norm(x - x_star) < 1e-4


def test_anderson_preserves_shape():
    mixer = AndersonMixer()
    x = np.zeros((3, 4), dtype=complex)
    gx = np.ones((3, 4), dtype=complex)
    out = mixer.mix(x, gx)
    assert out.shape == (3, 4)


@given(history=st.integers(min_value=2, max_value=20), beta=st.floats(min_value=0.25, max_value=1.0))
@settings(max_examples=15, deadline=None)
def test_anderson_any_history_converges(history, beta):
    a, b, x_star = _linear_fixed_point(n=20, seed=3, contraction=0.7)
    mixer = AndersonMixer(history=history, beta=beta)
    x = np.zeros_like(b)
    for _ in range(120):
        x = mixer.mix(x, a @ x + b)
    assert np.linalg.norm(x - x_star) < 5e-2


class StackAndSolveMixer:
    """The pre-PR-13 ``AndersonMixer``: re-stacks the history and rebuilds
    the Gram matrix on every call.  Kept as the oracle for the
    incremental-Gram formulation."""

    def __init__(self, history=20, beta=0.5, regularization=1e-12):
        self.history, self.beta, self.regularization = history, beta, regularization
        self._xs, self._fs = [], []

    def mix(self, x, gx):
        shape = x.shape
        xf = np.asarray(x).ravel()
        ff = np.asarray(gx).ravel() - xf
        self._xs.append(xf.copy())
        self._fs.append(ff.copy())
        if len(self._xs) > self.history:
            self._xs.pop(0)
            self._fs.pop(0)
        m = len(self._xs)
        if m == 1:
            return (xf + self.beta * ff).reshape(shape)
        f_mat = np.stack(self._fs, axis=1)  # (n, m)
        df = f_mat[:, :-1] - f_mat[:, -1:]
        rhs = -f_mat[:, -1]
        a = df.conj().T @ df
        a += self.regularization * np.trace(a).real / max(a.shape[0], 1) * np.eye(a.shape[0])
        b = df.conj().T @ rhs
        try:
            coef = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            coef = np.linalg.lstsq(df, rhs, rcond=None)[0]
        c = np.empty(m, dtype=f_mat.dtype)
        c[:-1] = coef
        c[-1] = 1.0 - coef.sum()
        x_mat = np.stack(self._xs, axis=1)
        return (x_mat @ c + self.beta * (f_mat @ c)).reshape(shape)


def _mix_sequence(seed, n, calls, is_complex, converging):
    """``calls`` pairs ``(x, g(x))``: independent draws, or residuals that
    shrink by half per call so the Gram entries span several decades."""
    rng = np.random.default_rng(seed)

    def draw():
        v = rng.standard_normal(n)
        return v + 1j * rng.standard_normal(n) if is_complex else v

    pairs = []
    for k in range(calls):
        x = draw()
        pairs.append((x, x + draw() * (0.5**k if converging else 1.0)))
    return pairs


@given(
    history=st.integers(min_value=1, max_value=6),
    extra=st.integers(min_value=1, max_value=8),
    is_complex=st.booleans(),
    converging=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_anderson_matches_stack_and_solve_oracle(history, extra, is_complex, converging, seed):
    """More calls than ``history`` (the ring wraps): every output agrees
    with the stack-and-solve oracle, and a reset mixer replays bit-equal."""
    pairs = _mix_sequence(seed, 48, history + extra, is_complex, converging)
    mixer = AndersonMixer(history=history, beta=0.5)
    oracle = StackAndSolveMixer(history=history, beta=0.5)
    first = []
    for x, gx in pairs:
        out = mixer.mix(x, gx)
        ref = oracle.mix(x, gx)
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9 * np.abs(ref).max())
        first.append(out)
    mixer.reset()
    for (x, gx), out in zip(pairs, first):
        np.testing.assert_array_equal(mixer.mix(x, gx), out)


@pytest.mark.parametrize("history", [1, 3])
def test_anderson_degenerate_history_returns_x(history):
    """``g(x) == x`` twice: the Gram matrix and the system are all zeros."""
    mixer = AndersonMixer(history=history)
    x = np.arange(5.0) + 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(3):
            out = mixer.mix(x, x.copy())
            np.testing.assert_array_equal(out, x)


@pytest.mark.parametrize("history", [1, 2, 4])
def test_anderson_output_is_fresh_and_inputs_untouched(history):
    """No result aliases a ring row (a later call would rewrite it) or an input."""
    pairs = _mix_sequence(5, 16, 6, True, False)
    mixer = AndersonMixer(history=history)
    kept = []
    for x, gx in pairs:
        x0, gx0 = x.copy(), gx.copy()
        out = mixer.mix(x, gx)
        np.testing.assert_array_equal(x, x0)
        np.testing.assert_array_equal(gx, gx0)
        assert not any(np.shares_memory(out, a) for a in (x, gx, mixer._f, mixer._y))
        kept.append((out, out.copy()))
    for out, snapshot in kept:
        np.testing.assert_array_equal(out, snapshot)


def test_anderson_reallocates_after_reset():
    """A new length or dtype after ``reset()`` starts over; without one it is an error."""
    mixer = AndersonMixer(history=3)
    for x, gx in _mix_sequence(0, 8, 4, False, False):
        mixer.mix(x, gx)
    with pytest.raises(ValueError):
        mixer.mix(np.zeros(9), np.ones(9))
    for n, is_complex in ((9, False), (9, True), (4, True)):
        mixer.reset()
        fresh = AndersonMixer(history=3)
        for x, gx in _mix_sequence(1, n, 5, is_complex, False):
            out = mixer.mix(x, gx)
            np.testing.assert_array_equal(out, fresh.mix(x, gx))
            assert out.dtype == x.dtype


def test_anderson_warm_call_allocates_no_history_sized_block():
    """A warm ``mix`` peaks below 4 n itemsize: the result and the
    conjugated residual, never an ``(n, m)`` re-stack of the history."""
    n, history = 20000, 8
    pairs = _mix_sequence(2, n, history + 3, True, False)
    mixer = AndersonMixer(history=history)
    for x, gx in pairs[:-1]:
        mixer.mix(x, gx)
    x, gx = pairs[-1]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        mixer.mix(x, gx)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * x.itemsize


def test_kerker_conserves_electron_count(grid):
    mixer = KerkerMixer(grid, q0=1.5)
    rng = default_rng(7)
    rho = np.abs(rng.standard_normal(grid.ngrid))
    ne = rho.sum()
    rho_new = np.abs(rng.standard_normal(grid.ngrid))
    rho_new *= ne / rho_new.sum()
    out = mixer.mix(rho, rho_new)
    assert out.sum() == pytest.approx(ne, rel=1e-10)
    assert out.min() >= 0.0


def test_invalid_mixer_parameters():
    with pytest.raises(ValueError):
        LinearMixer(0.0)
    with pytest.raises(ValueError):
        AndersonMixer(history=0)


# ---------------- SCF driver -------------------------------------------------------
def test_default_nbands_matches_paper():
    """N = Ne/2 + natom/2 (perf tests) or + natom (accuracy tests)."""
    assert default_nbands(4 * 384, 384, extra_ratio=0.5) == 960
    assert default_nbands(4 * 1536, 1536, extra_ratio=0.5) == 3840
    assert default_nbands(4 * 8, 8, extra_ratio=1.0) == 24


def test_lda_scf_converges(lda_ground_state):
    ham, gs = lda_ground_state
    assert gs.converged
    assert gs.history[-1] < 1e-6


def test_scf_occupations_hold_all_electrons(lda_ground_state):
    ham, gs = lda_ground_state
    assert 2.0 * gs.occupations.sum() == pytest.approx(32.0, abs=1e-8)


def test_scf_density_positive_and_normalized(lda_ground_state):
    ham, gs = lda_ground_state
    assert gs.density.min() >= 0.0
    assert gs.density.sum() * ham.grid.dv == pytest.approx(32.0, rel=1e-8)


def test_scf_orbitals_orthonormal(lda_ground_state):
    ham, gs = lda_ground_state
    s = ham.grid.inner(gs.orbitals, gs.orbitals)
    assert np.abs(s - np.eye(gs.orbitals.shape[0])).max() < 1e-8


def test_scf_finite_temperature_fractional_occupation(lda_ground_state):
    """At 8000 K the paper's point: electrons are fractionally occupied."""
    _, gs = lda_ground_state
    frac = (gs.occupations > 0.01) & (gs.occupations < 0.99)
    assert frac.sum() >= 2


def test_scf_free_energy_below_total(lda_ground_state):
    _, gs = lda_ground_state
    assert gs.free_energy < gs.total_energy


def test_hse_scf_converges_and_lowers_energy(hse_ground_state, lda_ground_state):
    """Hybrid exchange binds: E_HSE < E_LDA for the same system."""
    _, gs_hse = hse_ground_state
    _, gs_lda = lda_ground_state
    assert gs_hse.converged
    assert gs_hse.total_energy < gs_lda.total_energy


def test_scf_reasonable_silicon_energy(lda_ground_state):
    """LDA-HGH silicon: roughly -3.5 to -4.5 Ha/atom at this crude cutoff."""
    _, gs = lda_ground_state
    per_atom = gs.total_energy / 8.0
    assert -5.0 < per_atom < -3.0


@pytest.mark.parametrize("group", ["ptim", "ptim_ace"])
def test_scf_energy_is_the_energy_of_every_other_state(group):
    """The ground state reports ``td_total_energy`` of its own image:
    sigma(0) = diag(occ), so (orbitals, occupations) is its eigenbasis
    image, bit for bit (golden LDA and HSE groups, field-free)."""
    sim = Simulation.from_config({key: CONFIGS[group][key] for key in ("system", "scf")})
    gs = sim.ground_state()
    energy = td_total_energy(sim.hamiltonian, gs.orbitals, gs.occupations, gs.density)
    assert gs.total_energy == energy.total


def test_start_density_holds_the_electrons_and_is_nonnegative(ham):
    rho = groundstate._start_density(ham)
    assert rho.min() >= 0.0
    assert rho.sum() * ham.grid.dv == pytest.approx(ham.n_electrons, rel=1e-12)


def test_start_density_of_a_supercell_repeats_the_cell(grid, ham):
    """Built from the atoms alone: on a grid with twice the points along x,
    the 2x1x1 supercell starts from the 8-atom cell's density twice over."""
    n1, n2, n3 = grid.shape
    sgrid = PlaneWaveGrid(silicon_supercell((2, 1, 1)), ecut=grid.ecut, shape=(2 * n1, n2, n3))
    rho = grid.to_box(groundstate._start_density(ham))
    rho_super = sgrid.to_box(groundstate._start_density(Hamiltonian(sgrid, SemilocalFunctional())))
    np.testing.assert_allclose(rho_super, np.concatenate([rho, rho]), rtol=0.0, atol=1e-12 * rho.max())


def test_hybrid_bootstrap_stops_where_the_first_exchange_jump_begins(hse_ground_state):
    """The semilocal pass ends at its first density change below a tenth of
    the smallest jump an eigensolve at the cap resolves; the change after it
    is the jump the first exchange operator causes, above that bound."""
    _, gs = hse_ground_state
    bound = (
        groundstate._INNER_TOL_PER_JUMP
        * groundstate._DAVIDSON_TOL_CAP
        / groundstate._DAVIDSON_TOL_PER_DRHO
    )
    # the first change follows the eigensolve at the cap and never stops a pass
    end = next(k for k in range(1, len(gs.history)) if gs.history[k] < bound)
    assert gs.history[end + 1] > bound
    assert gs.converged


def test_scf_rejects_nonpositive_nbands(ham):
    """Regression: an explicit falsy nbands must error, not silently
    fall back to the default band count."""
    from repro.scf import SCFOptions, run_scf

    for bad in (0, -3):
        with pytest.raises(ValueError, match="nbands must be a positive band count"):
            run_scf(ham, SCFOptions(nbands=bad, max_scf=1))
    # the start block (bands plus guards) needs that many plane waves
    with pytest.raises(ValueError, match="plane waves of the cutoff sphere"):
        run_scf(ham, SCFOptions(nbands=ham.grid.npw, max_scf=1))


@pytest.mark.parametrize(
    "exchange_tol, passes, converged",
    [(0.0, 3, False), (1e3, 2, True)],  # never met: all of max_outer; met at once: bootstrap + one
)
def test_hybrid_scf_one_dense_exchange_per_outer_pass(tiny_grid, exchange_tol, passes, converged):
    """Each outer pass applies the dense operator once (its ``V_x Phi``
    gives both the exchange energy and the next ACE operator); one more
    application evaluates the returned state's energy."""
    from repro.scf import SCFOptions, run_scf

    h = Hamiltonian(tiny_grid, HybridFunctional())
    dense_calls = []
    apply_diag = h.fock.apply_diag
    h.fock.apply_diag = lambda *a, **k: dense_calls.append(1) or apply_diag(*a, **k)
    # max_scf = 4 is what the density needs to reach 1e-2 under the first ACE
    gs = run_scf(
        h,
        SCFOptions(nbands=20, density_tol=1e-2, max_scf=4, max_outer=3, exchange_tol=exchange_tol),
    )
    assert gs.converged == converged
    assert len(dense_calls) == passes + 1
    assert h.exchange_mode == "ace"


def test_hybrid_scf_not_converged_while_the_density_is_not(tiny_grid):
    """An exchange energy that stopped moving does not end the outer loop
    while the last density change is still above ``density_tol``."""
    from repro.scf import SCFOptions, run_scf

    h = Hamiltonian(tiny_grid, HybridFunctional())
    opts = SCFOptions(nbands=20, density_tol=1e-2, max_scf=2, max_outer=3, exchange_tol=1e3)
    gs = run_scf(h, opts)
    assert gs.history[-1] >= opts.density_tol
    assert not gs.converged
    assert gs.scf_iterations == opts.max_scf * opts.max_outer


def _davidson_reporting(solve, flags):
    """``solve`` (``davidson``) with call k's ``converged`` replaced by
    ``flags(k, result)``; returns the wrapper and the list of calls seen."""
    import dataclasses

    seen = []

    def wrapped(grid, apply_h, phi0, **kw):
        result = solve(grid, apply_h, phi0, **kw)
        seen.append((kw["tol"], result))
        return dataclasses.replace(result, converged=flags(len(seen), result))

    return wrapped, seen


@pytest.mark.parametrize("functional", ["lda", "hse"])
def test_scf_converged_needs_the_last_eigensolve_converged(tiny_grid, monkeypatch, functional):
    """A last ``davidson`` call that ran into its iteration cap leaves the
    state unconverged however small the density change (a hybrid spends its
    remaining outer passes trying); one that did so earlier is forgotten
    once a later call converges."""
    import repro.scf.groundstate as groundstate
    from repro.scf import SCFOptions, run_scf

    opts = SCFOptions(nbands=20, density_tol=1e-3, exchange_tol=1e-2, max_outer=6)
    h = Hamiltonian(tiny_grid, build_component("functional", functional))
    solve = groundstate.davidson
    for flags, converged in (
        (lambda k, result: k != 1 and result.converged, True),
        (lambda k, result: False, False),
    ):
        wrapped, seen = _davidson_reporting(solve, flags)
        monkeypatch.setattr(groundstate, "davidson", wrapped)
        gs = run_scf(h, opts)
        assert seen[-1][1].converged  # the solver itself did converge its last call
        assert gs.history[-1] < opts.density_tol
        assert gs.converged == converged


def test_hybrid_scf_tolerances_follow_the_operator_they_are_solved_under(tiny_grid, monkeypatch):
    """Recorded per ``davidson`` call of a hybrid ``run_scf``: every outer
    pass starts at the cap (the density error under a new exchange operator
    is not known yet) and no later call is tighter than 3 % of the density
    change before it *in the same pass*, the last call included."""
    import repro.scf.groundstate as groundstate
    from repro.scf import SCFOptions, run_scf

    h = Hamiltonian(tiny_grid, HybridFunctional())
    wrapped, seen = _davidson_reporting(groundstate.davidson, lambda k, result: result.converged)
    monkeypatch.setattr(groundstate, "davidson", wrapped)
    pass_starts = []
    for name in ("clear_exchange", "set_ace"):
        method = getattr(h, name)
        monkeypatch.setattr(
            h, name, lambda *a, _m=method: pass_starts.append(len(seen)) or _m(*a)
        )
    dense_calls = []
    apply_diag = h.fock.apply_diag
    h.fock.apply_diag = lambda *a, **k: dense_calls.append(1) or apply_diag(*a, **k)
    opts = SCFOptions(nbands=22, density_tol=1e-5, exchange_tol=1e-5, max_scf=30, max_outer=12)
    gs = run_scf(h, opts)
    assert gs.converged
    pass_starts = pass_starts[:-1]  # the last set_ace dresses the returned state
    cap, per_drho = groundstate._DAVIDSON_TOL_CAP, groundstate._DAVIDSON_TOL_PER_DRHO
    tols = [tol for tol, _ in seen]
    assert len(tols) == len(gs.history) == gs.scf_iterations
    for j, tol in enumerate(tols):
        if j in pass_starts:
            assert tol == cap
        else:
            assert tol == max(min(cap, per_drho * gs.history[j - 1]), opts.davidson_tol)
    # a call at the cap measures the jump; it never certifies a converged density
    assert all(b - a >= 2 for a, b in zip(pass_starts, pass_starts[1:] + [len(tols)]))
    # outer passes, i.e. dense Fock applications: 11 + 1 at the parent (c37c072)
    assert len(pass_starts) == len(dense_calls) - 1 <= 11
