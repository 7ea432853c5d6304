"""From-scratch SCF gate (ROADMAP item 0c): one per golden group.

``run_scf`` at the group's configured tolerances against a reference
converged three orders tighter in the same session, on this host.  The
golden trajectories are propagated from *pinned* states, so nothing else
in tier-1 bounds a ground state that was re-converged; a change to the
eigensolver or to the SCF's tolerance schedule is judged here.

Only gauge-invariant quantities are compared (ROADMAP 0b): total and free
energy, eigenvalues, occupations, the density and ``Tr sigma``.  The
orbital basis is free (any rotation inside a degenerate multiplet solves
the same problem), so orbitals and off-diagonal ``sigma`` are not.

Every bound is a formula in ``density_tol`` / ``exchange_tol`` /
``davidson_tol`` and in scales read off the reference (``N_e``, ``kT``,
the spread of ``v_eff``, the cell), never a number from one run:

* **density**: the loop stops on ``|rho_out - rho_in|_1 / N_e <
  density_tol``; the returned (mixed) density is within one such residual
  of ``rho_in``, and ``rho_in`` within one of the fixed point when the SCF
  map's Jacobian has no eigenvalue above zero (charge sloshing: ``1 -
  eps``), so ``2 density_tol``.  A hybrid adds what its outer loop left:
  it stops on ``|dE_x| < exchange_tol`` and contracts by ~0.3 a pass, so
  less than one more ``exchange_tol`` of exchange energy, i.e. (one
  hartree per electron of density moved) ``exchange_tol / Ha``.
* **energies**: the returned energy is evaluated on ``(orbitals, rho_in)``,
  so it is *first* order in the residual: ``N_e density_tol`` electrons
  sitting in a potential they are uncorrelated with cost its spread
  ``std(v_eff)`` each (the mean costs nothing, the residual integrates to
  zero), plus ``exchange_tol`` for a hybrid.
* **eigenvalues**: first order in the density error through the Hartree
  kernel of the cell's longest wave, ``4 pi / (G_min^2 Omega)`` per electron
  (every other component and the xc kernel are smaller), plus the Ritz
  error of the last eigensolve, whose residual is below
  ``density_tol + davidson_tol``.
* **occupations**: ``|f'| <= 1 / (4 kT)``, and both the level and the
  Fermi level move by at most the eigenvalue bound.
* ``Tr sigma`` holds ``N_e`` to round-off by construction.

Measured against these, parent c37c072 / PR 22 (the energy and density
bounds are the sharp ones, 4x to 30x; the eigenvalue and occupation chains
are worst cases, 20x to 500x): LDA ``|dE|`` 5.1e-6 / 3.9e-6 of 3.1e-5,
density 4.1e-7 / 3.9e-7 of 2.0e-6; HSE ``|dE|`` 8.5e-5 / 3.1e-5 of 3.2e-4,
density 4.5e-6 / 1.0e-6 of 3.0e-5.  Started from the atoms (1.16.0): LDA
``|dE|`` 2.7e-6, density 2.1e-7; HSE ``|dE|`` 8.4e-6, density 4.6e-7.  A
state converged ten times too loosely fails both.

**The HSE group runs 26 bands, not the goldens' 20.**  A hybrid's exchange
operator is built from the returned bands only, so a block that cuts a
symmetry multiplet stabilises the members it holds and not the rest: the
SCF breaks the symmetry and round-off picks the orientation.  Measured on
this cell at 20, 22 and 24 bands, on the parent as on this tree: two
references converged to 1e-9 from different seeds differ by 1e-4 in the
density and 1e-5 in the eigenvalues (energies agree to 1e-8), and at 20
bands the outer loop has no fixed point below ``|dE_x|`` ~ 2e-7 at all.
At 26 the block and its guard bands end on complete multiplets and the
guard bands hold 1e-7 electrons; the LDA group at 20 is in the same
position.  Each test checks that it has a reference in this sense: a
second one, started from random orbitals instead of the plane waves, must
agree with the first a hundred times better than the bounds ask of the
gated state.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from make_golden import CONFIGS

from repro.api import Simulation
from repro.constants import kelvin_to_hartree
from repro.scf import run_scf
from repro.utils.rng import default_rng

#: (golden config carrying the group's system and scf sections, scf overrides)
GROUPS = {"lda": ("ptim", {}), "hse": ("ptim_ace", {"nbands": 26})}


def _differences(ham, a, b):
    """Gauge-invariant distances between two ground states."""
    return {
        "energy": max(abs(a.total_energy - b.total_energy), abs(a.free_energy - b.free_energy)),
        "density": float(np.abs(a.density - b.density).sum()) * ham.grid.dv / ham.n_electrons,
        "eigenvalues": float(np.abs(a.eigenvalues - b.eigenvalues).max()),
        "occupations": float(np.abs(a.occupations - b.occupations).max()),
    }


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_from_scratch_scf_within_its_tolerances_of_a_tight_reference(group):
    name, overrides = GROUPS[group]
    config = {key: dict(CONFIGS[name][key]) for key in ("system", "scf")}
    config["scf"].update(overrides)
    sim = Simulation.from_config(config)
    ham = sim.hamiltonian
    opts = sim.config.scf
    hybrid = ham.functional.is_hybrid

    gs = run_scf(ham, opts)
    tight = dataclasses.replace(
        opts,
        density_tol=1e-3 * opts.density_tol,
        exchange_tol=1e-3 * opts.exchange_tol,
        davidson_tol=1e-3 * opts.davidson_tol,
        max_scf=200,
        max_outer=60,
    )
    # from random orbitals: another seed alone moves the plane-wave start by 1e-3
    start = ham.grid.random_orbitals(opts.nbands, default_rng(opts.seed + 1))
    other = run_scf(ham, dataclasses.replace(tight, seed=opts.seed + 1), phi0=start)
    ref = run_scf(ham, tight)  # last, so `ham` holds the reference's potential
    assert gs.converged and ref.converged and other.converged

    n_e, volume = ham.n_electrons, ham.cell.volume
    kt = kelvin_to_hartree(opts.temperature_k)
    x_tol = opts.exchange_tol if hybrid else 0.0
    g_min = np.sqrt(ham.grid.kinetic_sphere[ham.grid.kinetic_sphere > 0].min() * 2.0)
    hartree_kernel = 4.0 * np.pi / (g_min**2 * volume)
    bounds = {
        "energy": n_e * opts.density_tol * float(np.std(ham.v_eff)) + x_tol,
        "density": 2.0 * opts.density_tol + x_tol,
    }
    bounds["eigenvalues"] = (
        hartree_kernel * n_e * bounds["density"] + opts.density_tol + opts.davidson_tol
    )
    bounds["occupations"] = bounds["eigenvalues"] / (2.0 * kt)

    unique = _differences(ham, other, ref)
    found = _differences(ham, gs, ref)
    for key, bound in bounds.items():
        assert unique[key] < 1e-2 * bound, f"{group}: no unique reference for {key}"
        assert found[key] < bound, f"{group}: {key} off by {found[key]:.2e}, bound {bound:.2e}"
    for state in (gs, ref):
        assert abs(ham.degeneracy * np.trace(state.sigma).real - n_e) < 1e-10 * n_e
        assert abs(ham.degeneracy * state.occupations.sum() - n_e) < 1e-10 * n_e
