"""rt-TDDFT propagators: invariants, cross-method consistency, Fig. 7/8
claims at laptop scale."""

import sys

import numpy as np
import pytest

from oracles import (
    eigenbasis_image,
    matrix_diag_density,
    mixed_exchange,
    plain_fixed_point_update,
    real_space_step,
)
from repro.constants import AU_PER_ATTOSECOND
from repro.grid import PlaneWaveGrid
from repro.hamiltonian import Hamiltonian
from repro.hamiltonian.fock import FockExchangeOperator
from repro.hartree.ewald import ewald_energy
from repro.observables.energy import td_total_energy
from repro.rt import (
    GaussianLaserPulse,
    PTIMACEOptions,
    PTIMACEPropagator,
    PTIMOptions,
    PTIMPropagator,
    RK4Propagator,
    TDState,
    ZeroField,
)
from repro.rt.gauge import density_matrix_distance
from repro.observables.dipole import cell_centered_coordinates, dipole_moment
from repro.parallel import FUGAKU_ARM, DistributedFockExchange, SimComm
from repro.occupation.sigma import (
    clip_and_normalize,
    diagonalize_sigma,
    hermitize,
    rotate_orbitals,
    trace_sigma,
)
from repro.rt.ptcn import PTCNOptions, PTCNPropagator
from repro.scf import SCFOptions, run_scf
from repro.utils.rng import default_rng
from repro.utils.testing import random_hermitian_sigma
from repro.xc.hybrid import make_functional

DT_50AS = 50.0 * AU_PER_ATTOSECOND


def _state(gs):
    return TDState(gs.orbitals.copy(), gs.sigma.copy(), 0.0)


def _density(prop, state):
    """``prop.density`` of ``state``, handed the eigenbasis image ``observe`` hands it."""
    return prop.density(*eigenbasis_image(state.phi, state.sigma))


# ---------------- field-free invariants (hybrid) ----------------------------------
@pytest.fixture(scope="module")
def hse_run(hse_ground_state):
    """Three field-free PT-IM steps at the paper's 50 as."""
    ham, gs = hse_ground_state
    ham.field = ZeroField()
    prop = PTIMPropagator(ham, PTIMOptions(density_tol=1e-7, max_scf=30), track_sigma=[(0, 2)])
    final = prop.propagate(_state(gs), dt=DT_50AS, n_steps=3)
    return ham, gs, prop, final


def test_ptim_conserves_particle_number(hse_run):
    ham, gs, prop, final = hse_run
    pn = np.asarray(prop.record.particle_number)
    assert np.allclose(pn, pn[0], atol=1e-9)


def test_ptim_conserves_energy_field_free(hse_run):
    ham, gs, prop, final = hse_run
    e = np.asarray(prop.record.energy)
    assert np.abs(e - e[0]).max() < 5e-7


def test_ptim_ace_conserves_energy_field_free(hse_ground_state):
    """Fig. 7(c)(e)'s flat-energy panels: three field-free PT-IM-ACE steps
    at 50 as from the hybrid ground state drift less than 1e-6 Ha."""
    ham, gs = hse_ground_state
    ham.field = ZeroField()
    prop = PTIMACEPropagator(
        ham, PTIMACEOptions(density_tol=1e-8, exchange_tol=1e-8), record_energy=True
    )
    prop.propagate(_state(gs), dt=DT_50AS, n_steps=3)
    e = np.asarray(prop.record.energy)
    assert np.abs(e - e[0]).max() < 1e-6


def test_ptim_keeps_orbitals_orthonormal(hse_run):
    ham, gs, prop, final = hse_run
    s = ham.grid.inner(final.phi, final.phi)
    assert np.abs(s - np.eye(final.nbands)).max() < 1e-10


def test_ptim_keeps_sigma_hermitian_and_physical(hse_run):
    ham, gs, prop, final = hse_run
    assert np.abs(final.sigma - final.sigma.conj().T).max() < 1e-12
    lam = np.linalg.eigvalsh(final.sigma)
    assert lam.min() > -1e-6 and lam.max() < 1.0 + 1e-6


def test_ptim_scf_counts_reasonable(hse_run):
    """Field-free from the ground state: few SCF iterations per step —
    5 measured, 8-9 with the plain map of ``oracles.py``, so a lost
    preconditioner fails here and not first in the benchmark."""
    ham, gs, prop, final = hse_run
    iters = [s.scf_iterations for s in prop.record.stats[1:]]
    assert all(i <= 7 for i in iters)
    assert all(s.converged for s in prop.record.stats)


@pytest.fixture(scope="module")
def hse_rk4_dipole(hse_ground_state):
    """The same 150 as with RK4 at 5 as, sampled where ``hse_run`` is:
    the integrator that shares no stopping rule with the fixed point.  Its
    samples lie within 1.6e-7 of RK4's at 1 as, a thousandth of the 1.5e-4
    the PT-IM dipole is held to."""
    ham, gs = hse_ground_state
    ham.field = ZeroField()
    rk = RK4Propagator(ham, record_energy=False)
    rk.propagate(_state(gs), dt=5.0 * AU_PER_ATTOSECOND, n_steps=30, observe_every=10)
    return np.asarray(rk.record.dipole)


def test_ptim_stationary_state_dipole_static(hse_run, hse_rk4_dipole):
    ham, gs, prop, final = hse_run
    d = np.asarray(prop.record.dipole)
    # a small initial relaxation is expected: the ground state converged
    # against its ACE operator while the propagator applies the dense
    # exchange (O(1e-4) operator mismatch); beyond that, no drift
    assert np.abs(d - d[0]).max() < 2e-3
    # ... and the relaxation is the one RK4 sees, sample for sample (what
    # is left is the midpoint rule's own O(dt^2)); "the last two samples
    # agree" also passes on a trajectory whose first step did not move and
    # whose second jumped twice as far
    assert np.abs(d - hse_rk4_dipole).max() < 1.5e-4


def test_ptim_first_step_from_hybrid_ground_state_moves_with_rk4(hse_run, hse_rk4_dipole):
    """A ground state's density matrix is real, so a density test sees the
    first iteration only at second order: the output-density rule
    left the fixed point after one iteration with ``converged = True`` and
    the first step 3.0e-4 from RK4.  Two consecutive checks do not."""
    ham, gs, prop, final = hse_run
    first = prop.record.stats[1]
    assert first.converged and first.scf_iterations > 1
    d = np.asarray(prop.record.dipole)
    assert np.abs(d[1] - hse_rk4_dipole[1]).max() < 1.5e-4


def test_ptim_first_step_from_perturbed_occupations_is_tolerance_independent(lda_ground_state):
    """LDA ground-state orbitals with the occupations pulled 1 % towards
    their mean: ``P`` is real but not stationary, so the dipole moves 6e-3
    in 50 as.  The output-density rule at the default ``density_tol`` took
    one iteration and moved it 3e-7; the step must come out the same at
    1e-6 as at 1e-8."""
    ham, gs = lda_ground_state
    ham.field = ZeroField()
    f = gs.occupations
    g = f + 0.01 * (f.mean() - f)
    g *= f.sum() / g.sum()
    state = TDState(gs.orbitals.copy(), np.diag(g), 0.0)
    coords = cell_centered_coordinates(ham.grid)
    dipoles = []
    for tol in (1e-6, 1e-8):
        prop = PTIMPropagator(ham, PTIMOptions(density_tol=tol, max_scf=40), record_energy=False)
        new, stats = prop.step(state, DT_50AS)
        assert stats.converged and stats.scf_iterations > 1
        dipoles.append(dipole_moment(ham.grid, _density(prop, new), coords))
    start = dipole_moment(ham.grid, _density(prop, state), coords)
    assert np.abs(dipoles[1] - start).max() > 1e-3  # there is motion to miss
    assert np.abs(dipoles[0] - dipoles[1]).max() < 1e-5


# ---------------- PT-IM vs PT-IM-ACE ------------------------------------------------
def test_ace_matches_dense_ptim_under_laser(hse_ground_state):
    """The double loop converges to the same fixed point (Sec. IV-A2)."""
    ham, gs = hse_ground_state
    pulse = GaussianLaserPulse(amplitude=0.02, wavelength_nm=380.0, center_fs=0.05, fwhm_fs=0.08)
    ham.field = pulse

    prop_pt = PTIMPropagator(ham, PTIMOptions(density_tol=1e-8, max_scf=40))
    st_pt = prop_pt.propagate(_state(gs), dt=DT_50AS, n_steps=2)

    prop_ace = PTIMACEPropagator(
        ham, PTIMACEOptions(density_tol=1e-8, exchange_tol=1e-8, max_outer=12, max_inner=25)
    )
    st_ace = prop_ace.propagate(_state(gs), dt=DT_50AS, n_steps=2)

    dist = density_matrix_distance(ham.grid, st_pt.phi, st_pt.sigma, st_ace.phi, st_ace.sigma)
    assert dist < 5e-5
    d_pt = np.asarray(prop_pt.record.dipole)[:, 0]
    d_ace = np.asarray(prop_ace.record.dipole)[:, 0]
    assert np.allclose(d_pt, d_ace, atol=1e-5)


def test_ace_double_loop_statistics(hse_ground_state):
    """Inner/outer counts have the paper's structure (few outer, ~10+ inner)."""
    ham, gs = hse_ground_state
    ham.field = GaussianLaserPulse(amplitude=0.02, center_fs=0.05, fwhm_fs=0.08)
    prop = PTIMACEPropagator(ham, PTIMACEOptions(density_tol=1e-7, exchange_tol=1e-7))
    prop.propagate(_state(gs), dt=DT_50AS, n_steps=1)
    stats = prop.record.stats[-1]
    assert 2 <= stats.outer_iterations <= 10
    assert stats.scf_iterations >= stats.outer_iterations
    # the point of ACE: dense Fock evaluations ~ outer count, not inner
    assert stats.fock_applications == stats.ace_builds
    assert stats.fock_applications < stats.scf_iterations


def test_baseline_fock_mode_matches_diag_mode(hse_ground_state):
    """One PT-IM step on sigma's eigenbasis image == the same step on real-
    space rows with the baseline kernels: Alg. 2's triple-loop exchange and
    the pairwise density (``oracles.real_space_step``)."""
    ham, gs = hse_ground_state
    ham.field = ZeroField()
    # small subsystem to keep the N^3 loop cheap
    n = 6
    phi = gs.orbitals[:n].copy()
    sigma = gs.sigma[:n, :n].copy()
    state = TDState(phi, sigma, 0.0)

    prop = PTIMPropagator(ham, PTIMOptions(density_tol=1e-9, max_scf=25), record_energy=False)
    ref, _ = real_space_step(prop, state.copy(), DT_50AS, tripleloop=True)
    new, _ = prop.step(state.copy(), DT_50AS)
    dist = density_matrix_distance(ham.grid, new.phi, new.sigma, ref.phi, ref.sigma)
    assert dist < 1e-7


# ---------------- the shared fixed-point driver -------------------------------------
def _small_hse_state(hse_ground_state, n=8):
    """An ``n``-band sub-block under a pulse: cheap, and several iterations per loop."""
    ham, gs = hse_ground_state
    ham.field = GaussianLaserPulse(amplitude=0.02, center_fs=0.05, fwhm_fs=0.08)
    return ham, TDState(gs.orbitals[:n].copy(), gs.sigma[:n, :n].copy(), 0.0)


def test_ace_propagator_reuse_is_bit_identical(hse_ground_state):
    """The mixer an instance keeps carries nothing from one step into the
    next, so a resumed run (fresh propagator) continues bit-identically."""
    ham, state = _small_hse_state(hse_ground_state)
    prop = PTIMACEPropagator(
        ham, PTIMACEOptions(density_tol=1e-7, exchange_tol=1e-7), record_energy=False
    )
    first, stats_first = prop.step(state, DT_50AS)
    again, stats_again = prop.step(state, DT_50AS)
    assert stats_first.scf_iterations > stats_first.outer_iterations > 1
    np.testing.assert_array_equal(again.phi, first.phi)
    np.testing.assert_array_equal(again.sigma, first.sigma)
    assert stats_again == stats_first


@pytest.mark.parametrize("kind", ["ptim", "ptim_ace"])
def test_shared_driver_matches_hand_written_loops(hse_ground_state, kind):
    """Same iteration counts, and the same state to round-off, as the
    per-propagator real-space-row loops the shared sphere-block driver
    replaced (``oracles.real_space_step``)."""
    ham, state = _small_hse_state(hse_ground_state)
    if kind == "ptim":
        prop = PTIMPropagator(ham, PTIMOptions(density_tol=1e-7, max_scf=30), record_energy=False)
    else:
        prop = PTIMACEPropagator(
            ham, PTIMACEOptions(density_tol=1e-7, exchange_tol=1e-7), record_energy=False
        )
    ref, (n_inner, n_outer, n_fock, n_ace, resid, converged) = real_space_step(
        prop, state, DT_50AS
    )
    new, stats = prop.step(state, DT_50AS)
    assert n_inner > 3 and converged
    assert (stats.scf_iterations, stats.outer_iterations) == (n_inner, n_outer)
    assert (stats.fock_applications, stats.ace_builds) == (n_fock, n_ace)
    assert stats.converged == converged
    assert stats.residual == pytest.approx(resid, rel=1e-6)
    np.testing.assert_allclose(new.phi, ref.phi, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(new.sigma, ref.sigma, rtol=0.0, atol=1e-12)


def _count_kernel_calls(monkeypatch, cls):
    """One entry per call of ``cls.apply_diag``, the dense exchange kernel."""
    calls = []
    kernel = cls.apply_diag

    def counted(self, *args, **kwargs):
        calls.append(args[0].shape)
        return kernel(self, *args, **kwargs)

    monkeypatch.setattr(cls, "apply_diag", counted)
    return calls


@pytest.mark.parametrize("kind", ["ptim", "ptim-r2", "ptim_ace", "rk4"])
def test_recorded_energy_starts_the_next_step(hse_ground_state, monkeypatch, kind):
    """Exact-repeat counters of two steps.  A recorded energy applies the
    dense exchange to the state's eigenbasis image, and the next step's
    first dense evaluation (PT-IM's first iteration, PT-IM-ACE's first
    build, RK4's first stage) asks for it bit for bit, so the
    ``Hamiltonian`` answers it from its record: recording costs one
    application per observation that no step starts from, and the
    trajectory does not depend on ``record_energy`` or ``observe_every``.
    ``ptim-r2`` runs the exchange on two simulated ranks."""
    base, state = _small_hse_state(hse_ground_state)
    factory, kernel = None, FockExchangeOperator
    dt = AU_PER_ATTOSECOND if kind == "rk4" else DT_50AS
    if kind == "ptim-r2":
        kernel = DistributedFockExchange

        def factory(grid, kernel_g, batch_size):
            return DistributedFockExchange(grid, kernel_g, SimComm(2, FUGAKU_ARM), batch_size=batch_size)

    calls = _count_kernel_calls(monkeypatch, kernel)

    def run(record_energy, observe_every=1):
        ham = Hamiltonian(base.grid, base.functional, field=base.field, fock_factory=factory)
        options = dict(track_sigma=[(0, 1)], record_energy=record_energy)
        if kind == "ptim_ace":
            opts = PTIMACEOptions(density_tol=1e-7, exchange_tol=1e-7)
            prop = PTIMACEPropagator(ham, opts, **options)
        elif kind == "rk4":
            prop = RK4Propagator(ham, **options)
        else:
            prop = PTIMPropagator(ham, PTIMOptions(density_tol=1e-7), **options)
        before = len(calls)
        final = prop.propagate(state, dt, n_steps=2, observe_every=observe_every)
        return final, prop.record, len(calls) - before

    final, record, n = run(False)
    assert n > 2 and np.isnan(record.energy).all()
    for observe_every, observed, starts in ((1, [0, 1, 2], 2), (2, [0, 2], 1)):
        other, other_record, n_other = run(True, observe_every)
        # one application per recorded energy, less one per step begun from it
        assert n_other == n + len(observed) - starts
        assert np.isfinite(other_record.energy).all()
        assert np.array_equal(other.phi, final.phi)
        assert np.array_equal(other.sigma, final.sigma)
        assert np.array_equal(np.asarray(other_record.dipole), np.asarray(record.dipole)[observed])
        samples = np.asarray(record.sigma_samples[(0, 1)])[observed]
        assert np.array_equal(np.asarray(other_record.sigma_samples[(0, 1)]), samples)


def test_dense_exchange_record_answers_only_a_bit_identical_request(
    hse_ground_state, monkeypatch
):
    """The record answers a request equal to the last one in every bit of
    ``(phi~, d)`` and its shape, read-only; one ulp of one weight or one
    orbital value, or a band fewer, is evaluated afresh, and the record
    holds a copy of its request, not the caller's array."""
    base, state = _small_hse_state(hse_ground_state, n=6)
    ham = Hamiltonian(base.grid, base.functional)
    calls = _count_kernel_calls(monkeypatch, FockExchangeOperator)
    phi, d = eigenbasis_image(state.phi, state.sigma)
    vx = ham.dense_exchange(phi, d)
    assert not vx.flags.writeable and len(calls) == 1
    assert ham.dense_exchange(phi.copy(), d.copy()) is vx and len(calls) == 1

    nudged = d.copy()
    nudged[2] = np.nextafter(nudged[2], 1.0)
    fresh = ham.dense_exchange(phi, nudged)
    assert len(calls) == 2 and fresh is not vx
    assert np.array_equal(fresh, ham.fock.apply_diag(phi, nudged))
    phi[0, 0] = complex(np.nextafter(phi[0, 0].real, np.inf), phi[0, 0].imag)
    ham.dense_exchange(phi, nudged)
    assert len(calls) == 4
    ham.dense_exchange(phi[:5], nudged[:5])
    assert len(calls) == 5


def test_inner_iteration_costs_two_orbital_transforms_and_a_hartree_pair(lda_ground_state):
    """Exact-repeat counter: one more application of T is one more
    ``sphere -> real`` of the midpoint block, one more ``real -> sphere``
    of the local product and one more Hartree pair — ``2 nb + 2``
    transforms (``3 nb + 2`` while the loop transformed ``T(x)`` for its
    residual).  A step capped at ``m`` applications: pack, ``m``
    iterations, the image the last residual is taken on, finish."""
    ham, gs = lda_ground_state
    ham.field = GaussianLaserPulse(amplitude=0.02, center_fs=0.05, fwhm_fs=0.08)
    nb = 10
    state = TDState(gs.orbitals[:nb].copy(), gs.sigma[:nb, :nb].copy(), 0.0)
    counters = ham.grid.backend.counters

    def transforms(max_scf):
        prop = PTIMPropagator(
            ham, PTIMOptions(density_tol=1e-14, max_scf=max_scf), record_energy=False
        )
        snap = counters.snapshot()
        _, stats = prop.step(state, DT_50AS)
        assert not stats.converged and stats.scf_iterations == max_scf
        assert np.isfinite(stats.residual)
        return counters.since(snap).transforms

    assert transforms(3) == 3 * nb + 3 * (2 * nb + 2)
    assert transforms(4) - transforms(3) == 2 * nb + 2


def test_ace_step_transforms_each_midpoint_once(hse_ground_state, monkeypatch):
    """Exact-repeat counters of one PT-IM-ACE step (``nb`` bands,
    ``n_inner`` applications of T over ``n_outer`` converged loops).

    Outside the pair solves of the dense exchange the step transforms
    ``(2 nb + 2) n_inner + nb (n_outer + 3)`` times.  An application of T
    is the ``real -> sphere`` of the local product, the Hartree pair and
    the ``sphere -> real`` of the *next* midpoint, so a loop that is
    handed its first image and hands back its last (the one the closing
    residual is taken on, and the one the next ``build_ace`` needs) makes
    exactly ``2 nb + 2`` per application.  Each ``build_ace`` packs its
    ``W`` block (``nb n_outer``); the rest is the first build's image,
    ``_pack`` and ``_finish_step``.  The density is built once per
    midpoint: ``n_inner + n_outer`` times, not ``2 n_inner + n_outer``.
    """
    import repro.rt.propagator as propagator_module

    ham, state = _small_hse_state(hse_ground_state)
    nb = state.nbands
    counters = ham.grid.backend.counters
    tally = {"fock": 0, "density": 0}

    # the dense evaluation of a build: the exchange's self-application on
    # the midpoint's eigenbasis rows
    dense = ham.fock.apply_diag

    def counted_dense(*args, **kwargs):
        snap = counters.snapshot()
        out = dense(*args, **kwargs)
        tally["fock"] += counters.since(snap).transforms
        return out

    density = propagator_module.density_from_orbitals_diag

    def counted_density(*args, **kwargs):
        tally["density"] += 1
        return density(*args, **kwargs)

    monkeypatch.setattr(ham.fock, "apply_diag", counted_dense)
    monkeypatch.setattr(propagator_module, "density_from_orbitals_diag", counted_density)
    prop = PTIMACEPropagator(
        ham, PTIMACEOptions(density_tol=1e-7, exchange_tol=1e-7), record_energy=False
    )
    snap = counters.snapshot()
    _, stats = prop.step(state, DT_50AS)
    total = counters.since(snap).transforms
    n_inner, n_outer = stats.scf_iterations, stats.outer_iterations
    assert stats.converged and n_inner > n_outer > 1
    assert total - tally["fock"] == (2 * nb + 2) * n_inner + nb * (n_outer + 3)
    assert tally["density"] == n_inner + n_outer


def _trace_sigma2(sigma):
    return float(np.trace(sigma @ sigma).real)


@pytest.mark.parametrize("kind", ["ptim-lda", "ptim_ace-hse", "ptcn-lda"])
def test_three_steps_match_real_space_oracle(lda_ground_state, hse_ground_state, kind):
    """Three pulsed steps from one ground state, sphere-block propagator
    against the oracle-built real-space-row propagation: the same
    iterations every step and the same observables — needs no golden file."""
    scheme, functional = kind.split("-")
    ham, gs = hse_ground_state if functional == "hse" else lda_ground_state
    ham.field = GaussianLaserPulse(amplitude=0.02, center_fs=0.05, fwhm_fs=0.08)
    n = 10
    state = TDState(gs.orbitals[:n].copy(), gs.sigma[:n, :n].copy(), 0.0)
    if scheme == "ptim":
        prop = PTIMPropagator(ham, PTIMOptions(density_tol=1e-7), record_energy=False)
    elif scheme == "ptcn":
        prop = PTCNPropagator(ham, PTCNOptions(density_tol=1e-7), record_energy=False)
    else:
        prop = PTIMACEPropagator(
            ham, PTIMACEOptions(density_tol=1e-7, exchange_tol=1e-7), record_energy=False
        )
    grid = ham.grid
    new, ref = state, state
    for _ in range(3):
        ref, (n_inner, n_outer, _, _, _, converged) = real_space_step(prop, ref, DT_50AS)
        new, stats = prop.step(new, DT_50AS)
        assert converged and stats.converged
        assert (stats.scf_iterations, stats.outer_iterations) == (n_inner, n_outer)
        dip_new, dip_ref = (
            dipole_moment(grid, _density(prop, st), cell_centered_coordinates(grid)) for st in (new, ref)
        )
        assert np.abs(dip_new - dip_ref).max() < 1e-10
        assert abs(_trace_sigma2(new.sigma) - _trace_sigma2(ref.sigma)) < 1e-10
        assert abs(new.particle_number() - ref.particle_number()) < 1e-12
    overlap = grid.inner(new.phi, new.phi)
    assert np.abs(overlap - np.eye(n)).max() < 1e-12
    assert np.abs(new.sigma - new.sigma.conj().T).max() < 1e-12
    assert new.phi.shape == (n, grid.ngrid)  # the public state is real-space rows


# ---------------- working tolerance against a converged reference ---------------------
def _converged_steps(prop, state, n_steps, plain):
    """``(state, stats)`` after each of ``n_steps`` 50 as steps, every one
    converged; ``plain`` swaps in the map ``_fixed_point_update`` replaced."""
    with pytest.MonkeyPatch.context() as patch:
        if plain:
            patch.setattr(PTIMPropagator, "_fixed_point_update", plain_fixed_point_update)
        for _ in range(n_steps):
            state, stats = prop.step(state, DT_50AS)
            assert stats.converged
            yield state, stats


def _plain_map_density_change(prop, state, dt, x):
    """One application of the plain map ``T`` (``oracles.plain_fixed_point_update``,
    the map before the IMEX one) from the accepted iterate ``x`` of the packed
    ``state``'s step: the relative change of the midpoint density it makes,
    read the way the loop's stopping test reads it.  Costs one ``H``."""
    ham, grid = prop.ham, prop.grid
    c_mid, sigma_mid = prop._midpoint(state, x)
    image = prop._image(c_mid, sigma_mid)
    rho = prop.density(image.phi, image.d)
    ham.update_density(rho)
    ham.set_time(state.time + 0.5 * dt)
    prop._set_midpoint_exchange(image)
    tx = np.empty_like(x)
    c_t, sigma_t = prop._unpack(tx, state.nbands)
    plain_fixed_point_update(prop, state, c_mid, sigma_mid, image, dt, c_t, sigma_t)
    moved = prop._image(*prop._midpoint(state, tx))
    change = float(np.abs(prop.density(moved.phi, moved.d) - rho).sum())
    return 2.0 * change * grid.dv / ham.n_electrons


@pytest.fixture(scope="module")
def working_tolerance(lda_ground_state, hse_ground_state):
    """``get(kind, density_tol)``: three steps under the Fig. 7 pulse, cached
    across the two tests below: the dipoles and, for each step, the plain
    map's midpoint-density change from the accepted iterate."""
    cache = {}

    def get(kind, density_tol):
        if (kind, density_tol) in cache:
            return cache[kind, density_tol]
        scheme, functional = kind.split("-")
        ham, gs = hse_ground_state if functional == "hse" else lda_ground_state
        ham.field = GaussianLaserPulse(amplitude=0.02, wavelength_nm=380.0, center_fs=0.05, fwhm_fs=0.08)
        common = dict(density_tol=density_tol, max_scf=120)
        if scheme == "ptim":
            prop = PTIMPropagator(ham, PTIMOptions(**common), record_energy=False)
        elif scheme == "ptcn":
            prop = PTCNPropagator(ham, PTCNOptions(**common), record_energy=False)
        else:
            opts = PTIMACEOptions(exchange_tol=density_tol, max_outer=40, max_inner=60, **common)
            prop = PTIMACEPropagator(ham, opts, record_energy=False)
        changes, finish = [], prop._finish_step

        def checked_finish(state, dt, x):
            changes.append(_plain_map_density_change(prop, state, dt, x))
            return finish(state, dt, x)

        prop._finish_step = checked_finish
        coords = cell_centered_coordinates(ham.grid)
        steps = _converged_steps(prop, _state(gs), 3, plain=False)
        dipoles = [dipole_moment(ham.grid, _density(prop, state), coords) for state, _ in steps]
        cache[kind, density_tol] = np.asarray(dipoles), np.asarray(changes)
        return cache[kind, density_tol]

    return get


MAP_KINDS = ["ptim-hse", "ptim_ace-hse", "ptcn-lda"]


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_imex_map_has_the_plain_maps_fixed_point(working_tolerance, hse_ground_state, kind):
    """``M`` is invertible, so the IMEX map ``x + M^{-1}(T(x) - x)`` and ``T``
    have the same fixed points: the accepted iterate ``x*`` of each step is
    one of ``T`` to the loop's tolerance.  The plain step ``T(x*) - x*`` is
    ``M`` times the IMEX step, and the orbital block's ``|M|`` is at most
    ``|1 + i dt/2 ecut|`` (3.3 here, above the sigma block's), so one
    application of ``T`` moves the midpoint density by at most that factor
    times ``tol``, to first order: the change the loop's own test reads."""
    grid = hse_ground_state[0].grid  # the LDA fixture's grid too
    stiffness = abs(1.0 + 0.5j * DT_50AS * grid.kinetic_sphere).max()
    for tol in (1e-11, 1e-6):
        _, changes = working_tolerance(kind, tol)
        assert changes.max() < stiffness * tol


@pytest.mark.parametrize("kind", MAP_KINDS)
def test_working_tolerance_step_is_within_its_tolerance_bound(working_tolerance, hse_ground_state, kind):
    """Three steps at ``density_tol = 1e-6`` against the same steps at 1e-11.

    Bound on the dipole, from the tolerance alone: a residual below ``tol``
    leaves at most ``tol * N_e`` of density (1-norm) misplaced per step,
    cell-centred coordinates reach ``L / 2``, and errors of successive steps
    at worst add: ``|delta d| <= n_steps * N_e * (L / 2) * tol``."""
    ham, _ = hse_ground_state  # N_e and the cell are the LDA fixture's too
    n_steps, tol = 3, 1e-6
    (ref, _), (run, _) = working_tolerance(kind, 1e-11), working_tolerance(kind, tol)
    half_box = 0.5 * np.linalg.norm(ham.grid.cell.lattice, axis=1).max()
    assert np.abs(run - ref).max() < n_steps * ham.n_electrons * half_box * tol


def test_imex_iteration_count_does_not_grow_with_the_cutoff(si_cell):
    """The plain map's Jacobian has norm ``dt ecut / 2`` from the kinetic
    energy alone (1.0 at ``ecut`` 2, 2.6 at 5, 50 as), so its iteration
    count climbs with the cutoff (measured 23 -> 34 at ``density_tol``
    1e-8); with ``|G|^2/2`` inverted exactly it does not (14.0 -> 14.5)."""
    mean_iterations = {}
    for ecut in (2.0, 5.0):
        ham = Hamiltonian(PlaneWaveGrid(si_cell, ecut=ecut), make_functional("lda"), field=ZeroField())
        gs = run_scf(ham, SCFOptions(temperature_k=8000.0, nbands=20, density_tol=1e-6, max_scf=40))
        ham.field = GaussianLaserPulse(amplitude=0.02, center_fs=0.05, fwhm_fs=0.08)
        for plain in (False, True):
            opts = PTIMOptions(density_tol=1e-8, max_scf=80, mix_beta=0.5 if plain else 1.0)
            prop = PTIMPropagator(ham, opts, record_energy=False)
            counts = [stats.scf_iterations for _, stats in _converged_steps(prop, _state(gs), 2, plain)]
            mean_iterations[ecut, plain] = np.mean(counts)
    assert abs(mean_iterations[5.0, False] - mean_iterations[2.0, False]) <= 2.0
    assert mean_iterations[5.0, True] - mean_iterations[2.0, True] >= 5.0  # stiffness to miss


def test_sigma_update_is_the_commutator_resolvent(lda_ground_state, rng, monkeypatch):
    """``_sigma_update`` returns ``sigma_x + (1 + i dt/2 ad_h)^{-1} (T_sigma(x)
    - sigma_x)``: checked against a dense solve of that linear system, and
    unchanged when ``eigh`` hands back another basis of each degenerate
    eigenspace of ``h_sub``."""
    ham, _ = lda_ground_state
    prop = PTIMPropagator(ham, record_energy=False)
    eps = np.array([-0.3, -0.3, -0.3, 0.1, 0.1, 0.4])
    n, dt = eps.size, DT_50AS

    def random_unitary(m):
        return np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]

    q = random_unitary(n)
    h_sub = (q * eps) @ q.conj().T
    h_sub = 0.5 * (h_sub + h_sub.conj().T)
    sigma_n, sigma_mid = (random_hermitian_sigma(n, rng) for _ in range(2))
    state = TDState(np.zeros((n, 1), dtype=complex), sigma_n, 0.0)
    out = np.empty((n, n), dtype=complex)
    prop._sigma_update(state, h_sub, sigma_mid, dt, out)

    sigma_x = 2.0 * sigma_mid - sigma_n
    resid = sigma_n - 1j * dt * (h_sub @ sigma_mid - sigma_mid @ h_sub) - sigma_x
    eye = np.eye(n)
    ad_h = np.kron(h_sub, eye) - np.kron(eye, h_sub.T)  # row-major vec of [h, .]
    step = np.linalg.solve(np.eye(n * n) + 0.5j * dt * ad_h, resid.ravel()).reshape(n, n)
    assert np.abs(out - (sigma_x + step)).max() < 1e-13

    eigh = np.linalg.eigh

    def rotated_eigh(a):
        w, u = eigh(a)
        u = u.copy()
        u[:, :3] = u[:, :3] @ random_unitary(3)
        u[:, 3:5] = u[:, 3:5] @ random_unitary(2)
        return w, u

    monkeypatch.setattr(np.linalg, "eigh", rotated_eigh)
    rotated = np.empty_like(out)
    prop._sigma_update(state, h_sub, sigma_mid, dt, rotated)
    assert np.abs(rotated - out).max() < 1e-13


# ---------------- PT-IM vs RK4 (LDA for speed) ---------------------------------------
def test_ptim_second_order_convergence_to_rk4(lda_ground_state):
    """Fig. 7's claim in convergence form: PT-IM -> RK4 as O(dt^2)."""
    ham, gs = lda_ground_state
    ham.field = GaussianLaserPulse(amplitude=0.02, center_fs=0.05, fwhm_fs=0.08)
    state0 = _state(gs)

    rk = RK4Propagator(ham, record_energy=False)
    ref = rk.propagate(state0.copy(), dt=0.5 * AU_PER_ATTOSECOND, n_steps=100, observe_every=100)

    dists = []
    for dt_as in (25.0, 12.5):
        n = int(round(50.0 / dt_as))
        prop = PTIMPropagator(ham, PTIMOptions(density_tol=1e-9, max_scf=40), record_energy=False)
        st = prop.propagate(state0.copy(), dt=dt_as * AU_PER_ATTOSECOND, n_steps=n, observe_every=n)
        dists.append(density_matrix_distance(ham.grid, st.phi, st.sigma, ref.phi, ref.sigma))
    # halving dt should cut the error by ~4 (allow >2.2 for preasymptotics)
    assert dists[1] < dists[0] / 2.2


def test_rk4_unitary_and_trace_preserving(lda_ground_state):
    ham, gs = lda_ground_state
    ham.field = ZeroField()
    prop = RK4Propagator(ham, record_energy=False)
    st = prop.propagate(_state(gs), dt=0.5 * AU_PER_ATTOSECOND, n_steps=20, observe_every=20)
    s = ham.grid.inner(st.phi, st.phi)
    assert np.abs(s - np.eye(st.nbands)).max() < 1e-6
    assert trace_sigma(st.sigma) == pytest.approx(trace_sigma(gs.sigma), abs=1e-12)


# ---------------- laser drives occupation dynamics (Fig. 8) ---------------------------
def test_laser_excites_sigma_offdiagonals(hse_ground_state):
    """Fig. 8: sigma develops off-diagonal structure under the pulse."""
    ham, gs = hse_ground_state
    ham.field = GaussianLaserPulse(amplitude=0.05, center_fs=0.05, fwhm_fs=0.08)
    prop = PTIMACEPropagator(
        ham,
        PTIMACEOptions(density_tol=1e-7, exchange_tol=1e-7),
        track_sigma=[(0, 2), (22, 22)],
        record_energy=False,
    )
    final = prop.propagate(_state(gs), dt=DT_50AS, n_steps=3)
    # Fig. 8(c): the initial sigma is diagonal (Fermi-Dirac fractions)
    assert np.abs(gs.sigma - np.diag(np.diag(gs.sigma))).max() < 1e-14
    off = np.asarray(prop.record.sigma_samples[(0, 2)])
    assert abs(off[0]) == 0.0
    # the field generates off-diagonal coherence somewhere in sigma (the
    # specific (0,2) element of Fig. 8 can be symmetry-suppressed at this
    # cell size)
    offdiag = final.sigma - np.diag(np.diag(final.sigma))
    assert np.abs(offdiag).max() > 1e-8
    # Fig. 8(d): still near-physical; the midpoint commutator update keeps
    # sigma's spectrum only to the SCF tolerance, so percent-level
    # excursions past [0, 1] are expected at this amplitude
    lam = np.linalg.eigvalsh(final.sigma)
    assert lam.min() > -0.02 and lam.max() < 1.02


@pytest.mark.slow
def test_ptim_ace_dipole_and_energy_match_rk4(hse_ground_state):
    """Fig. 7: two PT-IM-ACE steps at 50 as under the 380 nm pulse track
    RK4 at 1 as (50x smaller, cf. the paper's 100x) in dipole_x and total
    energy, sampled at the same times."""
    ham, gs = hse_ground_state
    ham.field = GaussianLaserPulse(amplitude=0.02, wavelength_nm=380.0, center_fs=0.05, fwhm_fs=0.08)
    rk = RK4Propagator(ham, record_energy=True)
    rk.propagate(_state(gs), dt=1.0 * AU_PER_ATTOSECOND, n_steps=100, observe_every=50)
    prop = PTIMACEPropagator(
        ham, PTIMACEOptions(density_tol=1e-8, exchange_tol=1e-8), record_energy=True
    )
    prop.propagate(_state(gs), dt=DT_50AS, n_steps=2)
    dip_pt = np.asarray(prop.record.dipole)[:, 0]
    dip_rk = np.asarray(rk.record.dipole)[:, 0]
    assert np.abs(dip_pt - dip_rk).max() < 0.08
    assert np.abs(np.asarray(prop.record.energy) - np.asarray(rk.record.energy)).max() < 5e-3


# ---------------- observation schedule ------------------------------------------------
class _FreePropagator(PTIMPropagator):
    """Trivial step (state unchanged, time advanced) to test the driver."""

    def step(self, state, dt):
        return TDState(state.phi, state.sigma, state.time + dt), None


def test_propagate_always_records_final_state(lda_ground_state):
    """Regression: with n_steps % observe_every != 0 the last state used
    to be silently dropped from the record."""
    ham, gs = lda_ground_state
    ham.field = ZeroField()
    prop = _FreePropagator(ham, record_energy=False)
    dt = DT_50AS
    final = prop.propagate(_state(gs), dt=dt, n_steps=5, observe_every=2)
    times = np.asarray(prop.record.times)
    # initial + steps 2, 4, and the final (5th) step
    assert np.allclose(times / dt, [0.0, 2.0, 4.0, 5.0])
    assert times[-1] == pytest.approx(final.time)


def test_propagate_no_double_record_when_divisible(lda_ground_state):
    ham, gs = lda_ground_state
    ham.field = ZeroField()
    prop = _FreePropagator(ham, record_energy=False)
    dt = DT_50AS
    prop.propagate(_state(gs), dt=dt, n_steps=4, observe_every=2)
    times = np.asarray(prop.record.times)
    assert np.allclose(times / dt, [0.0, 2.0, 4.0])


# ---------------- sigma's eigenbasis: one decomposition per midpoint -----------------
def _count_calls(monkeypatch, func):
    """The argument tuples of every call to ``func`` made through any loaded
    ``repro`` module that imported it by name."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counted)
    return calls


@pytest.mark.parametrize("kind", ["ptim", "ptim_ace"])
def test_step_decomposes_each_midpoint_once_and_rotates_sphere_blocks(
    hse_ground_state, monkeypatch, kind
):
    """Exact-repeat counters of one step.  Each midpoint is decomposed
    once: a dense PT-IM step makes ``n + 1`` midpoints (``2 n + 1``
    decompositions while the density and the exchange sources each made
    their own), a PT-IM-ACE step ``n_inner + 1``, since the last midpoint
    of an inner loop is the first of the next and an ACE build decomposes
    nothing (``n_inner + 2 n_outer`` before).  The first midpoint is the
    state, whose real-space rows are rotated as ``observe`` rotates them:
    one ``(nb, ngrid)`` rotation, and every other is of an ``(nb, npw)``
    sphere block."""
    ham, state = _small_hse_state(hse_ground_state)
    if kind == "ptim":
        prop = PTIMPropagator(ham, PTIMOptions(density_tol=1e-7), record_energy=False)
    else:
        prop = PTIMACEPropagator(
            ham, PTIMACEOptions(density_tol=1e-7, exchange_tol=1e-7), record_energy=False
        )
    decompositions = _count_calls(monkeypatch, diagonalize_sigma)
    rotations = _count_calls(monkeypatch, rotate_orbitals)
    _, stats = prop.step(state, DT_50AS)
    n = stats.scf_iterations
    assert stats.converged and n > stats.outer_iterations
    assert len(decompositions) == n + 1
    assert len(rotations) == n + 1
    assert rotations[0][0].shape == (state.nbands, ham.grid.ngrid)
    assert {block.shape for block, _ in rotations[1:]} == {(state.nbands, ham.grid.npw)}


def test_observe_decomposes_sigma_once_for_density_and_energy(hse_ground_state, monkeypatch):
    """``observe`` records, bit for bit, the dipole and energy of the
    formulas on sigma's eigenbasis image, and makes that image once: one
    decomposition and one rotation of the real-space rows serve the
    density, the kinetic and nonlocal terms (packed from the rotated rows)
    and the exact exchange, with or without the energy."""
    ham, gs = hse_ground_state
    ham.field = ZeroField()
    grid, n = ham.grid, 8
    sigma = hermitize(random_hermitian_sigma(n, default_rng(31)))
    state = TDState(gs.orbitals[:n].copy(), sigma, 0.0)
    ham.set_time(state.time)
    phi_t, d = eigenbasis_image(state.phi, state.sigma)
    rho = matrix_diag_density(grid, state.phi, state.sigma, ham.degeneracy)
    rho = np.maximum(rho, 0.0)
    rho *= ham.n_electrons / (rho.sum() * grid.dv)
    dipole = dipole_moment(grid, rho, cell_centered_coordinates(grid))
    energy = td_total_energy(ham, phi_t, d, rho, ewald_energy(ham.cell)).total

    for record_energy in (False, True):
        prop = PTIMPropagator(ham, record_energy=record_energy)
        with monkeypatch.context() as patch:
            decompositions = _count_calls(patch, diagonalize_sigma)
            rotations = _count_calls(patch, rotate_orbitals)
            prop.observe(state)
        assert len(decompositions) == 1
        assert len(rotations) == 1
        assert np.array_equal(prop.record.dipole[0], dipole)
    assert np.array_equal(prop.record.energy[0], energy)


def test_hybrid_scf_decomposes_no_sigma(small_grid, monkeypatch):
    """The SCF's ``sigma = diag(occ)`` is its own eigenbasis image
    ``(rows, occ)``: the dense exchange of every hybrid pass and the final
    exchange energy run without one decomposition or rotation."""
    ham = Hamiltonian(small_grid, make_functional("hse"), field=ZeroField())
    applications = []
    apply_diag = ham.fock.apply_diag

    def counted(phi, weights):
        applications.append(phi.shape)
        return apply_diag(phi, weights)

    monkeypatch.setattr(ham.fock, "apply_diag", counted)
    decompositions = _count_calls(monkeypatch, diagonalize_sigma)
    rotations = _count_calls(monkeypatch, rotate_orbitals)
    gs = run_scf(ham, SCFOptions(nbands=20, density_tol=1e-4, max_scf=4, max_outer=2))
    assert gs.orbitals.shape[0] == 20
    # one dense application at the end of each of the two passes (the
    # semilocal bootstrap's builds the first ACE), one for the final energy
    assert len(applications) == 3
    assert decompositions == [] and rotations == []


def test_rk4_hybrid_step_decomposes_sigma_once(hse_ground_state, monkeypatch):
    """One HSE RK4 step under a non-diagonal sigma, so that ``Q`` is no
    permutation: the stages built on sigma's eigenbasis image and rotated
    back equal ``-i (H_noexch phi + alpha V_x[Phi sigma Phi*] phi)`` staged
    by hand on the matrix, and sigma, constant over the step, is decomposed
    once (twice per stage while the density and the exchange sources each
    decomposed the matrix)."""
    ham, state = _small_hse_state(hse_ground_state, n=6)
    sigma = hermitize(random_hermitian_sigma(state.nbands, default_rng(41)))
    phi, grid, dt = state.phi, ham.grid, AU_PER_ATTOSECOND

    def rhs(block, t):
        rho = matrix_diag_density(grid, block, sigma, ham.degeneracy)
        ham.update_density(clip_and_normalize(rho, ham.n_electrons, grid.dv))
        ham.set_time(t)
        vx = mixed_exchange(ham.fock, block, sigma)
        exchange = grid.to_real(grid.to_sphere(ham.functional.alpha * vx))
        return -1j * (ham.apply_real(block, include_exchange=False) + exchange)

    k1 = rhs(phi, 0.0)
    k2 = rhs(phi + 0.5 * dt * k1, 0.5 * dt)
    k3 = rhs(phi + 0.5 * dt * k2, 0.5 * dt)
    k4 = rhs(phi + dt * k3, dt)
    increment = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    decompositions = _count_calls(monkeypatch, diagonalize_sigma)
    new, _ = RK4Propagator(ham, record_energy=False).step(TDState(phi, sigma, 0.0), dt)
    assert len(decompositions) == 1
    assert np.abs((new.phi - phi) - increment).max() <= 1e-12 * np.abs(increment).max()
    np.testing.assert_array_equal(new.sigma, sigma)
