"""Property-based invariants (hypothesis): conservation laws and gauge
freedom must hold for *random* small systems, not just curated fixtures.

Three families, spanning propagator x functional:

* gauge independence — the density (hence the dipole) is invariant under
  the sigma-diagonalizing orbital rotation freedom of paper Eq. (11),
  for both density kernels;
* step invariants — one PT step from an arbitrary (orthonormal-orbital,
  physical-sigma) state preserves sigma hermiticity, the particle number
  trace, and orbital orthonormality, converged or not;
* RK4 invariants — sigma is exactly constant in the Schrödinger gauge
  and the explicit step is unitary to integrator order.

States are random but deterministic (hypothesis draws seeds, numpy
generates), and example counts are small: every step here runs a real
fixed-point solve on a real plane-wave Hamiltonian.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from oracles import matrix_diag_density  # noqa: E402
from repro.grid import PlaneWaveGrid, silicon_cubic_cell  # noqa: E402
from repro.hamiltonian import Hamiltonian  # noqa: E402
from repro.observables.dipole import cell_centered_coordinates, dipole_moment  # noqa: E402
from repro.occupation.sigma import (  # noqa: E402
    density_from_orbitals_pairwise,
    hermitize,
    trace_sigma,
)
from repro.rt import ZeroField  # noqa: E402
from repro.rt.ptcn import PTCNOptions, PTCNPropagator  # noqa: E402
from repro.rt.ptim import PTIMOptions, PTIMPropagator  # noqa: E402
from repro.rt.ptim_ace import PTIMACEOptions, PTIMACEPropagator  # noqa: E402
from repro.rt.propagator import TDState  # noqa: E402
from repro.rt.rk4 import RK4Propagator  # noqa: E402
from repro.utils.rng import default_rng  # noqa: E402
from repro.api.components import build as build_component  # noqa: E402

SETTINGS = settings(max_examples=5, deadline=None, derandomize=True)

_GRID = None
_HAMS = {}


def _grid() -> PlaneWaveGrid:
    global _GRID
    if _GRID is None:
        _GRID = PlaneWaveGrid(silicon_cubic_cell(), ecut=2.0)
    return _GRID


def _ham(functional: str) -> Hamiltonian:
    if functional not in _HAMS:
        _HAMS[functional] = Hamiltonian(
            _grid(), build_component("functional", functional), field=ZeroField()
        )
    return _HAMS[functional]


def _random_state(seed: int, nbands: int) -> TDState:
    """Orthonormal random orbitals + a random physical sigma (eigs in [0,1])."""
    rng = default_rng(seed)
    phi = _grid().random_orbitals(nbands, rng)
    z = rng.standard_normal((nbands, nbands)) + 1j * rng.standard_normal((nbands, nbands))
    q, _ = np.linalg.qr(z)
    d = rng.uniform(0.05, 1.0, nbands)
    sigma = (q * d) @ q.conj().T
    return TDState(phi, sigma, 0.0)


def _random_unitary(seed: int, n: int) -> np.ndarray:
    rng = default_rng(seed ^ 0x5EED)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# ---------------- gauge freedom ---------------------------------------------


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nbands=st.integers(2, 6))
def test_density_modes_agree(seed, nbands):
    """The diag (rotated) and pairwise density paths are numerically one."""
    state = _random_state(seed, nbands)
    sigma = hermitize(state.sigma)
    rho_diag = matrix_diag_density(_grid(), state.phi, sigma, 2.0)
    rho_pair = density_from_orbitals_pairwise(_grid(), state.phi, sigma, 2.0)
    np.testing.assert_allclose(rho_diag, rho_pair, rtol=0.0, atol=1e-10)


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nbands=st.integers(2, 6))
@pytest.mark.parametrize(
    "density",
    [matrix_diag_density, density_from_orbitals_pairwise],
    ids=["density_from_orbitals_diag", "density_from_orbitals_pairwise"],
)
def test_dipole_gauge_independent(density, seed, nbands):
    """Rotating (Phi, sigma) by any unitary leaves density and dipole alone.

    With ``Phi' = U Phi`` the matching occupation transform is
    ``sigma' = conj(U) sigma U^T`` (so that ``Σ σ'_ab φ'_a φ'^*_b`` is
    unchanged) — the gauge freedom the Sec. IV-A1 diagonalization uses.
    """
    grid = _grid()
    state = _random_state(seed, nbands)
    sigma = hermitize(state.sigma)
    u = _random_unitary(seed, nbands)
    phi_rot = u @ state.phi
    sigma_rot = u.conj() @ sigma @ u.T

    rho = density(grid, state.phi, sigma, 2.0)
    rho_rot = density(grid, phi_rot, hermitize(sigma_rot), 2.0)
    np.testing.assert_allclose(rho_rot, rho, rtol=0.0, atol=1e-10)

    coords = cell_centered_coordinates(grid)
    np.testing.assert_allclose(
        dipole_moment(grid, rho_rot, coords),
        dipole_moment(grid, rho, coords),
        rtol=0.0,
        atol=1e-10,
    )


# ---------------- PT step invariants ----------------------------------------

_FAST = dict(density_tol=1e-3, max_scf=4)

#: propagator x functional coverage matrix (the ids name the density and
#: exchange modes the cases once ran; there is one path now)
PT_CASES = [
    ("ptim-lda-diag", "lda", lambda: PTIMPropagator(_ham("lda"), PTIMOptions(**_FAST))),
    ("ptim-hse-densediag", "hse", lambda: PTIMPropagator(_ham("hse"), PTIMOptions(**_FAST))),
    ("ptcn-hse-pairwise", "hse", lambda: PTCNPropagator(_ham("hse"), PTCNOptions(**_FAST))),
    ("ptim_ace-hse", "hse", lambda: PTIMACEPropagator(_ham("hse"), PTIMACEOptions(max_outer=2, max_inner=3, **_FAST))),
]


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nbands=st.integers(3, 5))
@pytest.mark.parametrize("label,functional,make", PT_CASES, ids=[c[0] for c in PT_CASES])
def test_pt_step_invariants(label, functional, make, seed, nbands):
    state = _random_state(seed, nbands)
    trace_in = trace_sigma(state.sigma)
    prop = make()
    out, stats = prop.step(state.copy(), dt=1.0)

    # sigma stays Hermitian (Alg. 1 line 13) ...
    np.testing.assert_allclose(out.sigma, out.sigma.conj().T, rtol=0.0, atol=1e-12)
    # ... the particle number (trace per spin channel) is conserved ...
    assert trace_sigma(out.sigma) == pytest.approx(trace_in, abs=1e-8)
    # ... and the Löwdin step returns orthonormal orbital rows
    overlap = _grid().inner(out.phi, out.phi)
    np.testing.assert_allclose(overlap, np.eye(nbands), rtol=0.0, atol=1e-8)
    assert out.time == pytest.approx(state.time + 1.0)
    assert stats.scf_iterations >= 1


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), nbands=st.integers(3, 5))
def test_rk4_step_invariants(seed, nbands):
    """Schrödinger gauge: sigma exactly constant; near-unitary orbitals."""
    state = _random_state(seed, nbands)
    prop = RK4Propagator(_ham("lda"))
    out, _ = prop.step(state.copy(), dt=0.01)
    np.testing.assert_array_equal(out.sigma, state.sigma)
    overlap = _grid().inner(out.phi, out.phi)
    np.testing.assert_allclose(overlap, np.eye(nbands), rtol=0.0, atol=1e-6)
