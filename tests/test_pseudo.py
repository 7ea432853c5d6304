"""HGH pseudopotentials: tabulated values, projector norms, operators."""

import math

import numpy as np
import pytest
import scipy.special

import repro.pseudo.nonlocal_ as nonlocal_module
from oracles import full_grid_projectors
from repro.grid import PlaneWaveGrid, silicon_cubic_cell, silicon_supercell
from repro.pseudo.database import PSEUDO_DATABASE, get_pseudopotential
from repro.pseudo.hgh import (
    HGHParameters,
    _JL_SERIES_BELOW,
    h_matrix,
    local_potential_g,
    local_potential_g0_correction,
    local_potential_r,
    projector_fourier,
    projector_radial,
    spherical_jn,
)
from repro.pseudo.local import LocalPseudopotential
from repro.pseudo.nonlocal_ import NonlocalPseudopotential
from repro.utils.rng import default_rng


def test_silicon_h12_matches_literature():
    """HGH relation reproduces the tabulated Si value h^0_12 = -1.26189."""
    si = get_pseudopotential("Si")
    h = h_matrix(si, 0)
    assert h[0, 1] == pytest.approx(-1.26189397, abs=1e-5)
    assert h[0, 1] == h[1, 0]


def test_h_matrix_symmetric_all_elements():
    for symbol, params in PSEUDO_DATABASE.items():
        for l in range(params.lmax + 1):
            h = h_matrix(params, l)
            assert np.allclose(h, h.T), symbol


def test_projector_radial_normalized():
    """HGH projectors obey ∫ p(r)^2 r^2 dr = 1."""
    si = get_pseudopotential("Si")
    r = np.linspace(0.0, 10.0, 4001)
    for l in range(si.lmax + 1):
        for i in range(si.nproj(l)):
            p = projector_radial(si, l, i, r)
            norm = np.trapezoid(p**2 * r**2, r)
            assert norm == pytest.approx(1.0, rel=1e-6), (l, i)


def test_projector_fourier_q0_limit():
    """p~(q=0) = 4π ∫ p r^2 dr for l=0, and 0 for l=1."""
    si = get_pseudopotential("Si")
    r = np.linspace(0.0, 10.0, 4001)
    p0 = projector_radial(si, 0, 0, r)
    expected = 4.0 * math.pi * np.trapezoid(p0 * r**2, r)
    assert projector_fourier(si, 0, 0, np.array([0.0]))[0] == pytest.approx(expected, rel=1e-4)
    assert projector_fourier(si, 1, 0, np.array([0.0]))[0] == pytest.approx(0.0, abs=1e-10)


def test_projector_gamma_matches_scipy():
    """``math.gamma`` at every HGH exponent ``l + (4n - 1)/2`` of the
    database is ``scipy.special.gamma`` within 1e-15 relative (measured
    2.7e-16)."""
    expos = {
        l + (4.0 * (i + 1) - 1.0) / 2.0
        for params in PSEUDO_DATABASE.values()
        for l in range(params.lmax + 1)
        for i in range(params.nproj(l))
    }
    assert expos == {1.5, 2.5, 3.5}
    for expo in expos:
        assert math.gamma(expo) == pytest.approx(scipy.special.gamma(expo), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("reps", [(1, 1, 1), (2, 1, 1)])
def test_spherical_jn_matches_scipy_on_projector_tables(reps):
    """``j_l`` is ``scipy.special.spherical_jn`` within 1e-15 absolute
    (measured 4.4e-16) on the ``q r`` grid :func:`projector_fourier`
    tabulates for each shipped cell at the bench cutoff: every grid shell
    ``q`` times each species' 512-point radial grid, for every ``l`` of
    the database and up to ``l = 3``, on both sides of the series
    threshold."""
    grid = PlaneWaveGrid(silicon_supercell(reps), ecut=3.0)
    q = np.unique(np.sqrt(grid.gvec.g2))
    channels = {l for params in PSEUDO_DATABASE.values() for l in range(params.lmax + 1)}
    assert channels == {0, 1}
    for params in PSEUDO_DATABASE.values():
        for l, rl in enumerate(params.rl):
            x = np.outer(q, np.linspace(0.0, 10.0 * rl, 512))
            small = x < _JL_SERIES_BELOW
            assert small.any() and not small.all()
            for order in range(4):
                err = np.abs(spherical_jn(order, x) - scipy.special.spherical_jn(order, x))
                assert err.max() <= 1e-15, (params.symbol, l, order)


def test_local_potential_r_coulomb_tail():
    """V_loc -> -Z/r at large r."""
    si = get_pseudopotential("Si")
    r = np.array([8.0, 12.0])
    v = local_potential_r(si, r)
    assert np.allclose(v, -si.zion / r, rtol=1e-8)


def test_local_potential_g_fourier_consistency():
    """Numerical radial transform of V + Z erf-tail matches the analytic form."""
    si = get_pseudopotential("Si")
    q = np.array([0.8, 1.7, 3.2])
    r = np.linspace(1e-5, 30.0, 60001)
    v_r = local_potential_r(si, r)
    # subtract the long-range -Z/r tail analytically: FT(-Z/r) = -4 pi Z / q^2
    short = v_r + si.zion / r * np.vectorize(math.erf)(r / (math.sqrt(2.0) * si.rloc))
    analytic = local_potential_g(si, q)
    for i, qi in enumerate(q):
        num_short = 4.0 * math.pi * np.trapezoid(short * np.sin(qi * r) / qi * r, r)
        gauss_tail = -4.0 * math.pi * si.zion / qi**2 * math.exp(-0.5 * (qi * si.rloc) ** 2)
        assert num_short + gauss_tail == pytest.approx(analytic[i], rel=1e-5)


def test_g0_correction_negative_for_si():
    si = get_pseudopotential("Si")
    # alpha-Z for Si HGH is negative (about -4.98): the C1 < 0 Gaussian
    # term outweighs the positive Z rloc^2 / 2 term
    val = local_potential_g0_correction(si)
    assert np.isfinite(val) and val < 0.0


def test_database_lookup_error_lists_available():
    with pytest.raises(KeyError, match="available"):
        get_pseudopotential("Xx")


def test_local_pseudopotential_real(small_grid):
    lp = LocalPseudopotential(small_grid)
    assert lp.v_real.shape == (small_grid.ngrid,)
    assert lp.zion_total == pytest.approx(32.0)  # 8 Si x 4 valence
    # the G=0 component is zeroed, so the mean vanishes; the wells at the
    # atom sites must be deeply attractive
    assert abs(lp.v_real.mean()) < 1e-12
    assert lp.v_real.min() < -1.0


def test_nonlocal_projector_count(small_grid):
    nl = NonlocalPseudopotential(small_grid)
    # Si: 2 s projectors + 1 p projector x 3 m-channels = 5 per atom
    assert nl.nprojectors == 8 * 5
    assert nl.coupling.shape == (40, 40)
    assert np.allclose(nl.coupling, nl.coupling.T)


def test_nonlocal_hermitian(small_grid):
    nl = NonlocalPseudopotential(small_grid)
    rng = default_rng(9)
    phi = small_grid.random_orbitals(3, rng)
    c = small_grid.to_sphere(phi)
    # <x|V|y> == <V x|y> on the sphere-block inner product
    m = small_grid.inner(c, nl.apply_g(c))
    assert np.abs(m - m.conj().T).max() < 1e-10


def test_nonlocal_energy_real_and_matches_apply(small_grid):
    nl = NonlocalPseudopotential(small_grid)
    rng = default_rng(10)
    phi = small_grid.random_orbitals(4, rng)
    c = small_grid.to_sphere(phi)
    w = np.array([1.0, 0.5, 0.25, 0.0])
    e = nl.energy(c, w)
    per_band = np.diag(small_grid.inner(c, nl.apply_g(c))).real
    assert e == pytest.approx(float(np.dot(w, per_band)), rel=1e-12)
    # the sphere table is the full-box one, gathered: same energy from
    # PWDFT coefficients and <beta|phi> = Omega sum_G beta*(G) c(G)
    beta_g, _, _ = full_grid_projectors(small_grid)
    amps = small_grid.cell.volume * (beta_g.conj() @ small_grid.r_to_g(phi).T)
    full = np.einsum("pn,pq,qn->n", amps.conj(), nl.coupling, amps).real
    assert e == pytest.approx(float(np.dot(w, full)), rel=1e-12)


# ---------------- radial tables once per species and |G| shell ---------------------
@pytest.mark.parametrize("reps, ecut", [([1, 1, 1], 3.0), ([2, 1, 1], 2.0)])
def test_nonlocal_matches_per_atom_oracle(reps, ecut):
    grid = PlaneWaveGrid(silicon_supercell(reps), ecut=ecut)
    nl = NonlocalPseudopotential(grid)
    beta_ref, coupling_ref, labels_ref = full_grid_projectors(grid)
    beta_ref = np.sqrt(grid.cell.volume) * beta_ref[:, grid.sphere_index]
    assert np.abs(nl.beta_sphere - beta_ref).max() <= 1e-15 * np.abs(beta_ref).max()
    assert np.array_equal(nl.coupling, coupling_ref)
    assert nl.labels == labels_ref


def test_nonlocal_holds_nothing_grid_sized():
    """The projectors are held on the cutoff sphere only: no array of the
    operator has an ``ngrid`` axis."""
    grid = PlaneWaveGrid(silicon_supercell([2, 1, 1]), ecut=2.0)
    nl = NonlocalPseudopotential(grid)
    arrays = {k: v for k, v in vars(nl).items() if isinstance(v, np.ndarray)}
    assert set(arrays) == {"beta_sphere", "coupling"}
    assert nl.beta_sphere.shape == (80, grid.npw)
    assert all(grid.ngrid not in a.shape for a in arrays.values())


def test_nonlocal_radial_tables_once_per_species_and_shell(monkeypatch):
    """16 atoms of one species: one quadrature per (l, i), on the distinct
    |G| values only — the cost guard, with no timer."""
    grid = PlaneWaveGrid(silicon_supercell([2, 1, 1]), ecut=2.0)
    n_shells = np.unique(grid.to_flat(np.sqrt(grid.gvec.g2)[None])[0]).size
    calls = []

    def counted(params, l, i, q, *args, **kwargs):
        calls.append((params.symbol, l, i, np.size(q)))
        return projector_fourier(params, l, i, q, *args, **kwargs)

    monkeypatch.setattr(nonlocal_module, "projector_fourier", counted)
    NonlocalPseudopotential(grid)
    assert sorted(c[:3] for c in calls) == [("Si", 0, 0), ("Si", 0, 1), ("Si", 1, 0)]
    assert n_shells < grid.ngrid // 10
    assert all(nq <= n_shells for *_, nq in calls)


def test_a_channel_past_p_is_refused_where_it_is_made():
    """The projectors' real harmonics stop at l = 1: a parameter set with
    a d channel is refused when it is built, so the database holds none."""
    with pytest.raises(ValueError, match="Xx: channels beyond l = 1 are not implemented"):
        HGHParameters(
            symbol="Xx", zion=1.0, rloc=0.5, cloc=(0.0, 0.0, 0.0, 0.0),
            rl=(0.5, 0.5, 0.5), h_diag=((1.0,), (1.0,), (1.0,)),
        )
    assert max(params.lmax for params in PSEUDO_DATABASE.values()) == 1
