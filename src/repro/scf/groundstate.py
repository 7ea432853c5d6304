"""Ground-state SCF driver.

Produces the initial condition of every rt-TDDFT run in the paper: the
Kohn–Sham orbitals and the Fermi–Dirac occupation matrix ``sigma(0)``
(diagonal, fractional at 8000 K).  Supports semilocal functionals with a
single SCF loop and hybrids with the nested ACE loop (outer loop refreshes
the exchange operator from the current orbitals, inner loop converges the
density at fixed exchange) — the ground-state analogue of Fig. 4(b).

**Tolerances follow the error of the operator they are solved under.**
Neither an eigensolve nor an inner density loop is asked for more than the
fixed point it belongs to can use:

* each ``davidson`` call is solved to ``_DAVIDSON_TOL_PER_DRHO`` times the
  last density change *of the same outer pass*, never looser than
  ``_DAVIDSON_TOL_CAP`` nor tighter than ``davidson_tol``.  A new exchange
  operator moves the density by an amount the previous pass's converged
  ``d_rho`` says nothing about, so every pass starts at the cap; the
  density change that follows such a call measures that jump and is never
  taken as a sign of convergence;
* outer pass ``k > 0`` stops its inner loop at ``max(density_tol,
  _INNER_TOL_PER_JUMP * jump)``: its operator is still off by about the
  jump it caused, and the next pass replaces it;
* the semilocal pass that bootstraps a hybrid stops at ``max(density_tol,
  _INNER_TOL_PER_JUMP * _DAVIDSON_TOL_CAP / _DAVIDSON_TOL_PER_DRHO)``
  (3.3e-3).  The first hybrid pass opens with an eigensolve at the cap,
  which by the first rule resolves no density change below ``cap / 0.03``;
  that is the smallest jump it can measure, and like every pass the
  bootstrap needs a tenth of the jump that follows it.  A semilocal
  functional's only pass runs to ``density_tol``.

**The start is built from the atoms.**  The density starts as each atom's
valence charge ``Z_v`` in a normalised Gaussian, ``rho(G) = Omega^-1
exp(-w^2 G^2 / 2) sum_a Z_a exp(-i G.tau_a)``, clipped at zero and scaled
to ``N_e``.  Its rms radius ``sqrt(3) w`` is the Wigner–Seitz radius
``(3 Omega / 4 pi N_atom)^(1/3)`` of one atom's share of the cell (1.84
bohr in silicon): a bonded crystal's valence charge fills the cell, and
the pseudopotential's core radius (0.44 bohr) starts barely better than a
uniform density.  The orbitals start as the lowest-kinetic-energy plane
waves of the sphere, the eigenvectors of ``H`` without its potential, each
coefficient perturbed by seeded noise of ``_DAVIDSON_TOL_CAP / sqrt(npw)``:
that breaks the degeneracy of a kinetic shell below anything the first
eigensolve resolves, and ``seed`` still picks one start among equals.

``GroundState.converged`` means all of: the last density change is below
``density_tol``, the eigensolve that produced it met its tolerance
(``DavidsonResult.converged``; it is capped at 40 iterations) and, for a
hybrid, the exchange energy moved by less than ``exchange_tol`` over the
last pass.  The last eigensolves of a converged state are therefore at
``max(_DAVIDSON_TOL_PER_DRHO * d_rho, davidson_tol)`` with ``d_rho`` a few
``density_tol``.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.constants import SPIN_DEGENERACY, kelvin_to_hartree
from repro.grid.fftgrid import PlaneWaveGrid
from repro.hamiltonian.ace import ACEOperator
from repro.hamiltonian.hamiltonian import Hamiltonian
from repro.hartree.ewald import ewald_energy
from repro.occupation.fermi import fermi_occupations, smearing_entropy
from repro.occupation.sigma import clip_and_normalize, initial_sigma
from repro.pseudo.database import get_pseudopotential
from repro.scf.eigensolver import davidson
from repro.scf.mixing import KerkerMixer
from repro.utils.rng import default_rng
from repro.utils.validation import require


#: eigensolve tolerance per unit of density change: a residual r moves the output density by O(r)
_DAVIDSON_TOL_PER_DRHO = 0.03
#: loosest eigensolve, where every pass starts: its density error is unknown until one is built
_DAVIDSON_TOL_CAP = 1e-3
#: inner-loop stop per unit of jump: a pass leaves ~1/4 of the exchange error (0.3 doubles |dE|)
_INNER_TOL_PER_JUMP = 0.1
#: a hybrid's semilocal bootstrap stop: a tenth of the smallest jump an eigensolve at the cap resolves
_BOOTSTRAP_TOL = _INNER_TOL_PER_JUMP * _DAVIDSON_TOL_CAP / _DAVIDSON_TOL_PER_DRHO


@dataclass
class SCFOptions:
    """Knobs of the ground-state solver."""

    nbands: Optional[int] = None  #: default: Ne/2 + Natom/2 extra (paper: tests)
    temperature_k: float = 8000.0
    density_tol: float = 1.0e-6
    exchange_tol: float = 1.0e-6
    max_scf: int = 60
    max_outer: int = 10
    davidson_tol: float = 1e-7
    mix_beta: float = 0.5
    mix_history: int = 20
    seed: int = 7


@dataclass
class GroundState:
    """Converged ground state: the rt-TDDFT initial condition."""

    orbitals: np.ndarray  #: (nbands, ngrid) real-space rows, orthonormal
    eigenvalues: np.ndarray
    occupations: np.ndarray  #: per-orbital fractions in [0, 1]
    sigma: np.ndarray  #: diagonal occupation matrix sigma(0)
    fermi_level: float
    density: np.ndarray
    total_energy: float
    free_energy: float
    scf_iterations: int
    converged: bool
    history: List[float] = field(default_factory=list)
    #: modeled MPI seconds the SCF charged to the distributed-exchange
    #: ledger (0.0 on the serial path)
    comm_seconds: float = 0.0

    def to_arrays(self, prefix: str = "") -> Dict[str, np.ndarray]:
        """Every field as an npz-ready array under ``prefix + field name``."""
        return {prefix + f.name: np.asarray(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_arrays(cls, data: Mapping[str, np.ndarray], source, prefix: str = "") -> "GroundState":
        """Inverse of :meth:`to_arrays` on a loaded npz (``source`` names it in errors).

        The one codec of store blobs (no prefix) and checkpoints
        (``gs_``).  A field added after the file was written falls back
        to its dataclass default; one without a default is an error.
        """
        kwargs = {}
        for f in fields(cls):
            key = prefix + f.name
            if key not in data:
                if f.default is not MISSING or f.default_factory is not MISSING:
                    continue
                raise ValueError(f"{source} is missing ground-state field {key!r}")
            value = np.array(data[key])
            if value.ndim == 0:
                value = value.item()
            elif f.name == "history":
                value = [float(v) for v in value]
            kwargs[f.name] = value
        return cls(**kwargs)


def default_nbands(n_electrons: float, natom: int, extra_ratio: float = 0.5) -> int:
    """Paper Sec. VI: ``N = Ne/2 + extra`` with ``extra = natom * ratio``.

    (``ratio = 1`` in the accuracy tests, ``0.5`` elsewhere.)
    """
    return int(round(n_electrons / SPIN_DEGENERACY + extra_ratio * natom))


def _density_from(ham: Hamiltonian, phi: np.ndarray, occ: np.ndarray) -> np.ndarray:
    rho = np.einsum("i,ir->r", occ, (phi.conj() * phi).real)
    return clip_and_normalize(rho * ham.degeneracy, ham.n_electrons, ham.grid.dv)


def _start_density(ham: Hamiltonian) -> np.ndarray:
    """Superposed Gaussian valence charges of the atoms (module docstring)."""
    grid, cell = ham.grid, ham.cell
    r_ws = (3.0 * cell.volume / (4.0 * np.pi * cell.natom)) ** (1.0 / 3.0)
    z_v = np.array([get_pseudopotential(s).zion for s in cell.species])
    charge_g = np.tensordot(z_v, grid.gvec.structure_factors(cell.positions), axes=1)
    # exp(-w^2 G^2 / 2) with w^2 = r_ws^2 / 3
    rho_g = np.exp(-grid.gvec.g2 * (r_ws**2 / 6.0)) * charge_g / cell.volume
    rho = grid.g_to_r(rho_g.ravel(), consume=True).real
    return clip_and_normalize(rho, ham.n_electrons, grid.dv)


def _start_orbitals(grid: PlaneWaveGrid, nb: int, rng: np.random.Generator) -> np.ndarray:
    """The ``nb`` lowest plane waves of the sphere, perturbed (module docstring)."""
    require(nb <= grid.npw, f"{nb} bands exceed the {grid.npw} plane waves of the cutoff sphere")
    lowest = np.argsort(grid.kinetic_sphere, kind="stable")[:nb]
    shape = (nb, grid.npw)
    c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    c *= _DAVIDSON_TOL_CAP / np.sqrt(grid.npw)
    c[np.arange(nb), lowest] += 1.0
    return c / np.sqrt(grid.dv)


def total_energy(
    ham: Hamiltonian,
    phi: np.ndarray,
    occ: np.ndarray,
    kt: float,
    e_ewald: Optional[float] = None,
    exchange_energy: Optional[float] = None,
) -> tuple[float, float]:
    """Kohn–Sham total energy and Mermin free energy (hartree).

    ``E = T_s + E_loc + E_nl + E_H + E_xc + alpha E_x + E_II + E_{G=0}``
    evaluated from orbitals/occupations with the Hamiltonian's cached
    density-dependent pieces.
    """
    grid = ham.grid
    deg = ham.degeneracy
    w = deg * np.asarray(occ, float)
    c = grid.to_sphere(phi)
    e_kin = ham.kinetic.energy(c, w)
    e_nl = ham.nonlocal_pseudo.energy(c, w)
    rho = ham.rho
    require(rho is not None, "update_density must run before total_energy")
    e_loc = float(np.dot(rho, ham.local_pseudo.v_real)) * grid.dv
    e_h = ham.e_hartree
    e_xc = ham.e_xc_semilocal
    e_g0 = ham.local_pseudo.energy_g0(ham.n_electrons)
    if e_ewald is None:
        e_ewald = ewald_energy(ham.cell)
    e_x = 0.0
    if ham.functional.is_hybrid and exchange_energy is not None:
        e_x = ham.functional.alpha * exchange_energy
    e_tot = e_kin + e_loc + e_nl + e_h + e_xc + e_x + e_ewald + e_g0
    entropy = smearing_entropy(occ, degeneracy=deg)
    return e_tot, e_tot - kt * entropy


def run_scf(
    ham: Hamiltonian,
    options: Optional[SCFOptions] = None,
    phi0: Optional[np.ndarray] = None,
) -> GroundState:
    """Converge the ground state for the Hamiltonian's cell/functional.

    The tolerance schedule and what ``converged`` certifies are in the
    module docstring.
    """
    opts = options or SCFOptions()
    grid = ham.grid
    kt = kelvin_to_hartree(opts.temperature_k)
    # `is None`, not truthiness: an explicit nbands=0 must error below,
    # not silently fall back to the default band count
    if opts.nbands is None:
        nbands = default_nbands(ham.n_electrons, ham.cell.natom)
    else:
        nbands = int(opts.nbands)
    require(nbands > 0, f"nbands must be a positive band count, got {opts.nbands!r}")
    require(
        nbands * ham.degeneracy >= ham.n_electrons,
        f"{nbands} bands cannot hold {ham.n_electrons} electrons",
    )
    # unoccupied guard bands shield the physical block from slow
    # convergence of a degenerate cluster cut at the top
    nguard = max(2, nbands // 8)

    # distributed exchange charges a communication ledger; the SCF's share
    # is recorded on the returned ground state
    ledger = getattr(ham.fock, "ledger", None)
    ledger_mark = ledger.mark() if ledger is not None else 0

    # Davidson iterates on sphere blocks `phi`; their real-space rows `phi_r`,
    # unpacked once per iteration, feed the density and the dense exchange
    phi = _start_orbitals(grid, nbands + nguard, default_rng(opts.seed))
    if phi0 is not None:
        phi[: phi0.shape[0]] = grid.to_sphere(phi0[: nbands + nguard])

    rho = _start_density(ham)
    ham.update_density(rho)
    mixer = KerkerMixer(grid, q0=1.5, history=opts.mix_history, beta=opts.mix_beta)
    e_ewald = ewald_energy(ham.cell)

    history: List[float] = []
    occ = np.zeros(nbands)
    eig = np.zeros(nbands)
    mu = 0.0
    converged = False
    n_iter = 0

    outer_range = range(opts.max_outer) if ham.functional.is_hybrid else range(1)
    prev_ex = None
    vx_phi = None  # dense V_x Phi of the pass just ended on phi[:nbands], packed
    for outer in outer_range:
        # the density change under the operator just installed is not known
        # yet: the pass starts at the cap, not at the previous pass's d_rho
        dav_tol = _DAVIDSON_TOL_CAP
        inner_tol = opts.density_tol
        if ham.functional.is_hybrid:
            if outer == 0:
                ham.clear_exchange()  # first pass: semilocal only (bootstrap)
                inner_tol = max(opts.density_tol, _BOOTSTRAP_TOL)
            else:
                ham.set_ace(ACEOperator.from_dense_action(grid, phi[:nbands], vx_phi))
            # the fixed-point map changed (new exchange operator): stale
            # mixing history would poison the extrapolation
            mixer.reset()
        for it in range(opts.max_scf):
            n_iter += 1
            result = davidson(
                grid, ham.apply, phi, tol=dav_tol, max_iter=40, nconv=nbands
            )
            phi, eig_all = result.orbitals, result.eigenvalues
            eig = eig_all[:nbands]
            # Fermi-occupy ALL solved bands (guards included): truncating
            # the smearing tail at a band with non-negligible occupation
            # makes the SCF map discontinuous under band reordering and
            # the density oscillates instead of converging.
            occ_full, mu = fermi_occupations(eig_all, ham.n_electrons, kt, ham.degeneracy)
            occ = occ_full[:nbands]
            phi_r = grid.to_real(phi)
            rho_new = _density_from(ham, phi_r, occ_full)
            d_rho = float(np.abs(rho_new - rho).sum()) * grid.dv / ham.n_electrons
            history.append(d_rho)
            rho = mixer.mix(rho, rho_new)
            ham.update_density(rho)
            # the density change that follows the eigensolve at the cap says
            # how far the new operator moved the density (the jump), never
            # that the density has stopped moving
            if it == 0 and outer > 0:
                inner_tol = max(opts.density_tol, _INNER_TOL_PER_JUMP * d_rho)
            if it > 0 and d_rho < inner_tol:
                break
            dav_tol = min(_DAVIDSON_TOL_CAP, _DAVIDSON_TOL_PER_DRHO * d_rho)
            dav_tol = max(dav_tol, opts.davidson_tol)
        # the state is only as converged as its last eigensolve
        density_converged = d_rho < opts.density_tol and result.converged
        if not ham.functional.is_hybrid:
            converged = density_converged
            break
        # hybrid outer convergence: exchange energy change.  One dense
        # (N^2-FFT) application per pass serves this energy and the ACE
        # operator of the next pass (or of the returned state).
        # sigma = diag(occ), so (rows, occ) is already its eigenbasis image
        vx_r = ham.fock.apply_diag(phi_r[:nbands], occ)
        ex = ham.fock.exchange_energy(phi_r[:nbands], occ, degeneracy=ham.degeneracy, vx_phi=vx_r)
        vx_phi = grid.to_sphere(vx_r, consume=True)
        if prev_ex is not None and abs(ex - prev_ex) < opts.exchange_tol and density_converged:
            converged = True
            # refresh ACE one final time so the returned state is consistent
            ham.set_ace(ACEOperator.from_dense_action(grid, phi[:nbands], vx_phi))
            break
        prev_ex = ex

    phi_phys = np.ascontiguousarray(phi_r[:nbands])
    # final occupations re-solved over the returned bands only, so the
    # initial sigma of the dynamics holds exactly n_electrons
    occ, mu = fermi_occupations(eig, ham.n_electrons, kt, ham.degeneracy)
    sigma = initial_sigma(occ)
    exchange = None
    if ham.functional.is_hybrid and ham.fock is not None:
        exchange = ham.fock.exchange_energy(phi_phys, occ, degeneracy=ham.degeneracy)
    e_tot, e_free = total_energy(ham, phi_phys, occ, kt, e_ewald, exchange)

    return GroundState(
        orbitals=phi_phys,
        eigenvalues=eig,
        occupations=occ,
        sigma=sigma,
        fermi_level=mu,
        density=rho,
        total_energy=e_tot,
        free_energy=e_free,
        scf_iterations=n_iter,
        converged=converged,
        history=history,
        comm_seconds=(
            ledger.since_mark(ledger_mark).total_seconds() if ledger is not None else 0.0
        ),
    )
