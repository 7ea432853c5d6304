"""G-vectors, FFT grids, transforms and orbital-block linear algebra."""

import numpy as np
import pytest

from repro.grid import PlaneWaveGrid, silicon_cubic_cell
from repro.grid.gvectors import GVectors, minimal_fft_shape, _next_fast_even
from repro.utils.rng import default_rng


@pytest.fixture(scope="module")
def grid():
    return PlaneWaveGrid(silicon_cubic_cell(), ecut=3.0)


def test_next_fast_even():
    assert _next_fast_even(7) == 8
    assert _next_fast_even(11) == 12
    assert _next_fast_even(13) == 14
    assert _next_fast_even(4) == 4


def test_minimal_fft_shape_resolves_cutoff():
    cell = silicon_cubic_cell()
    shape = minimal_fft_shape(cell, 5.0, factor=1.0)
    gv = GVectors(cell, shape, 5.0)
    # the sphere must fit strictly inside the box
    assert gv.npw < np.prod(shape)
    assert gv.npw > 100


def test_gzero_is_first_point(grid):
    assert grid.gvec.g2[0, 0, 0] == pytest.approx(0.0)
    assert grid.gvec.sphere_mask[0, 0, 0]


def test_kinetic_is_half_g2(grid):
    assert np.allclose(grid.gvec.kinetic, 0.5 * grid.gvec.g2)


def test_structure_factor_at_origin_is_one(grid):
    s = grid.gvec.structure_factor(np.zeros(3))
    assert np.allclose(s, 1.0)


def test_structure_factor_unit_modulus(grid):
    s = grid.gvec.structure_factor(np.array([0.13, 0.57, 0.91]))
    assert np.allclose(np.abs(s), 1.0)


def test_structure_factors_batch_matches_single(grid):
    pos = np.array([[0.1, 0.2, 0.3], [0.7, 0.5, 0.9]])
    batch = grid.gvec.structure_factors(pos)
    for i in range(2):
        assert np.allclose(batch[i], grid.gvec.structure_factor(pos[i]))


def test_fft_roundtrip(grid):
    rng = default_rng(0)
    f = rng.standard_normal(grid.ngrid) + 1j * rng.standard_normal(grid.ngrid)
    back = grid.g_to_r(grid.r_to_g(f))
    assert np.allclose(back, f, atol=1e-12)


def test_forward_transform_of_plane_wave(grid):
    """A single plane wave e^{iGr} has coefficient 1 at its own G."""
    m = (1, 2, 0)  # integer Miller indices
    n1, n2, n3 = grid.shape
    i, j, k = np.meshgrid(np.arange(n1), np.arange(n2), np.arange(n3), indexing="ij")
    phase = 2j * np.pi * (m[0] * i / n1 + m[1] * j / n2 + m[2] * k / n3)
    f = np.exp(phase).ravel()
    fg = grid.r_to_g(f)
    box = grid.to_box(fg[None])[0]
    assert box[m] == pytest.approx(1.0, abs=1e-12)
    box[m] = 0.0
    assert np.abs(box).max() < 1e-12


def test_quadrature_weight(grid):
    assert grid.dv * grid.ngrid == pytest.approx(grid.cell.volume, rel=1e-12)


def test_random_orbitals_orthonormal(grid):
    rng = default_rng(1)
    phi = grid.random_orbitals(6, rng)
    s = grid.inner(phi, phi)
    assert np.abs(s - np.eye(6)).max() < 1e-12


def test_random_orbitals_respect_cutoff(grid):
    rng = default_rng(2)
    phi = grid.random_orbitals(3, rng)
    fg = grid.r_to_g(phi)
    mask = grid.to_flat(grid.gvec.sphere_mask[None])[0]
    assert np.abs(fg[:, ~mask]).max() < 1e-12


def test_apply_cutoff_idempotent(grid):
    rng = default_rng(3)
    fg = rng.standard_normal((2, grid.ngrid)).astype(complex)
    once = grid.apply_cutoff(fg.copy())
    twice = grid.apply_cutoff(once.copy())
    assert np.allclose(once, twice)


def test_low_pass_is_projection(grid):
    rng = default_rng(4)
    f = rng.standard_normal(grid.ngrid).astype(complex)
    p1 = grid.low_pass(f)
    p2 = grid.low_pass(p1)
    assert np.allclose(p1, p2, atol=1e-12)


def test_bandbyband_matches_batched(grid):
    """A per-band loop of transforms gives the batched call's bits."""
    rng = default_rng(6)
    f = rng.standard_normal((4, grid.ngrid)) + 1j * rng.standard_normal((4, grid.ngrid))
    for transform in (grid.r_to_g, grid.g_to_r):
        assert np.array_equal(np.stack([transform(row) for row in f]), transform(f))


# ---------------- the sphere-block representation (random cells / cutoffs) ----------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.grid.cell import UnitCell  # noqa: E402

SPHERE_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)
edge = st.floats(min_value=5.0, max_value=11.0)
sphere_cases = given(
    edges=st.tuples(edge, edge, edge),
    shear=st.floats(min_value=-0.15, max_value=0.15),
    ecut=st.floats(min_value=1.0, max_value=3.5),
    seed=st.integers(0, 2**32 - 1),
)


def _random_grid(edges, shear, ecut):
    lattice = np.diag(edges)
    lattice[1, 0] = shear * edges[0]
    cell = UnitCell(lattice, ("Si",), np.zeros((1, 3)))
    return PlaneWaveGrid(cell, ecut=ecut)


def _random_block(grid, seed, n=3):
    rng = default_rng(seed)
    return rng.standard_normal((n, grid.ngrid)) + 1j * rng.standard_normal((n, grid.ngrid))


def _mask_low_pass(grid, fr):
    """Cutoff projection the pre-index way: full transform, boolean mask."""
    fg = grid.r_to_g(fr)
    fg[..., ~grid.gvec.sphere_mask.ravel()] = 0.0
    return grid.g_to_r(fg)


@SPHERE_SETTINGS
@sphere_cases
def test_sphere_roundtrip_is_identity_on_band_limited_and_low_pass_otherwise(edges, shear, ecut, seed):
    grid = _random_grid(edges, shear, ecut)
    assert grid.sphere_index.shape == (grid.npw,)
    assert np.array_equal(grid.kinetic_sphere, grid.gvec.kinetic.ravel()[grid.sphere_index])
    f = _random_block(grid, seed)
    scale = np.abs(f).max()
    projected = grid.to_real(grid.to_sphere(f))
    assert np.abs(projected - _mask_low_pass(grid, f)).max() < 1e-13 * scale
    assert np.abs(grid.low_pass(f) - projected).max() == 0.0
    # band-limited in, the same block out; and the other way round
    assert np.abs(grid.to_real(grid.to_sphere(projected)) - projected).max() < 1e-13 * scale
    c = grid.to_sphere(f)
    assert c.shape == (3, grid.npw)
    assert np.abs(grid.to_sphere(grid.to_real(c)) - c).max() < 1e-13 * np.abs(c).max()


@SPHERE_SETTINGS
@sphere_cases
def test_inner_of_sphere_blocks_is_inner_of_real_space_images(edges, shear, ecut, seed):
    """Parseval under the unitary scaling ``c~ = sqrt(ngrid) c``: ``grid.inner``
    (hence Löwdin, the PT projector, the Rayleigh quotients) is the same
    number on either representation."""
    grid = _random_grid(edges, shear, ecut)
    rng = default_rng(seed)
    a = rng.standard_normal((3, grid.npw)) + 1j * rng.standard_normal((3, grid.npw))
    b = rng.standard_normal((4, grid.npw)) + 1j * rng.standard_normal((4, grid.npw))
    on_sphere = grid.inner(a, b)
    in_real_space = grid.inner(grid.to_real(a), grid.to_real(b))
    assert np.abs(on_sphere - in_real_space).max() < 1e-13 * np.abs(on_sphere).max()


def test_packed_unknown_has_the_norm_of_the_real_space_unknown(grid):
    """The PT-IM fixed point mixes ``x = (c~, sigma)`` with one Anderson
    least-squares over the concatenated vector, so the relative weight of
    the orbital part against ``sigma`` is part of the algorithm.  The
    unitary scaling keeps it what it was for ``(Phi_r, sigma)``: equal
    2-norms.  PWDFT's bare ``1/ngrid`` coefficients shrink the orbital
    part by ``sqrt(ngrid)`` (41.6 at 12^3), the mixer then fits ``sigma``
    almost alone, and ``rt.inner_iterations_per_step`` on ``si8-hse-ace``
    goes 63.8 -> 77.3."""
    from repro.hamiltonian import Hamiltonian
    from repro.rt import PTIMPropagator, TDState
    from repro.xc.hybrid import SemilocalFunctional

    rng = default_rng(30)
    nb = 6
    phi = grid.random_orbitals(nb, rng) * rng.uniform(0.5, 2.0, (nb, 1))
    sigma = rng.standard_normal((nb, nb)) + 1j * rng.standard_normal((nb, nb))
    prop = PTIMPropagator(Hamiltonian(grid, SemilocalFunctional()), record_energy=False)
    packed, x = prop._pack(TDState(phi, sigma, 0.0))
    assert x.shape == (nb * grid.npw + nb * nb,)
    real_space_unknown = np.concatenate([phi.ravel(), sigma.ravel()])
    assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(real_space_unknown), rel=1e-13)
    c, sig = prop._unpack(x, nb)
    assert np.array_equal(c, packed.phi) and np.array_equal(sig, sigma)
    # and what the bare coefficients would have done to the orbital part
    bare = grid.r_to_g(phi)[:, grid.sphere_index]
    assert np.linalg.norm(bare) == pytest.approx(np.linalg.norm(c) / np.sqrt(grid.ngrid), rel=1e-13)
