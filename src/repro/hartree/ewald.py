"""Ewald summation for the ion–ion interaction energy.

Standard split: real-space erfc sum + reciprocal Gaussian sum + self and
neutralizing-background corrections.  Needed for total energies (the
paper monitors total-energy conservation in Fig. 7(c)(e)).
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from repro.grid.cell import UnitCell
from repro.pseudo.database import get_pseudopotential

#: ``math.erfc`` elementwise: the real-space sum has tens of thousands of
#: terms, a few milliseconds per cell
_erfc = np.vectorize(math.erfc, otypes=[float])
#: :func:`ewald_energy` by cell content (lattice, species, positions) and
#: splitting
_computed: Dict[tuple, float] = {}


def _ion_charges(cell: UnitCell) -> np.ndarray:
    return np.array([get_pseudopotential(s).zion for s in cell.species])


def ewald_energy(cell: UnitCell, eta: float | None = None, tol: float = 1e-10) -> float:
    """Ion–ion electrostatic energy (hartree) of the periodic cell.

    Computed once per process for each cell content and splitting: the
    SCF and every propagator ask for the same cell's.

    Parameters
    ----------
    eta:
        Ewald splitting parameter (bohr^-2); a volume-based heuristic is
        used when omitted.
    tol:
        Target truncation error; sets the real/reciprocal shell cutoffs.
    """
    key = (cell.lattice.tobytes(), cell.species, cell.positions.tobytes(), eta, tol)
    if key not in _computed:
        _computed[key] = _ewald_sum(cell, eta, tol)
    return _computed[key]


def _ewald_sum(cell: UnitCell, eta: float | None, tol: float) -> float:
    charges = _ion_charges(cell)
    natom = cell.natom
    volume = cell.volume
    tau = cell.cartesian_positions()
    if eta is None:
        # balance real/reciprocal work: eta ~ (pi / V^(2/3))
        eta = math.pi / volume ** (2.0 / 3.0)
    sqrt_eta = math.sqrt(eta)

    # --- real-space sum ----------------------------------------------------
    rcut = math.sqrt(-math.log(tol)) / sqrt_eta
    lat = cell.lattice
    # number of images per direction to cover rcut
    inv = np.linalg.inv(lat)
    heights = 1.0 / np.linalg.norm(inv, axis=0)  # plane spacings
    nmax = np.ceil(rcut / heights).astype(int)
    shifts = np.array(
        [
            [i, j, k]
            for i in range(-nmax[0], nmax[0] + 1)
            for j in range(-nmax[1], nmax[1] + 1)
            for k in range(-nmax[2], nmax[2] + 1)
        ],
        dtype=float,
    )
    images = shifts @ lat  # (nimg, 3)

    e_real = 0.0
    for a in range(natom):
        # displacement of atom b (all) + image - atom a
        d = tau[None, :, :] + images[:, None, :] - tau[a][None, None, :]
        r = np.linalg.norm(d, axis=-1)  # (nimg, natom)
        # exclude the self term (r == 0 in the home cell)
        mask = r > 1e-10
        contrib = np.zeros_like(r)
        contrib[mask] = _erfc(sqrt_eta * r[mask]) / r[mask]
        e_real += charges[a] * float((charges[None, :] * contrib).sum())
    e_real *= 0.5

    # --- reciprocal-space sum -------------------------------------------------
    gcut = 2.0 * sqrt_eta * math.sqrt(-math.log(tol))
    b = cell.reciprocal
    bnorm = np.linalg.norm(b, axis=1)
    mmax = np.ceil(gcut / bnorm).astype(int)
    ms = np.array(
        [
            [i, j, k]
            for i in range(-mmax[0], mmax[0] + 1)
            for j in range(-mmax[1], mmax[1] + 1)
            for k in range(-mmax[2], mmax[2] + 1)
            if (i, j, k) != (0, 0, 0)
        ],
        dtype=float,
    )
    g = ms @ b
    g2 = np.einsum("ij,ij->i", g, g)
    keep = g2 <= gcut * gcut
    g, g2 = g[keep], g2[keep]
    phases = np.exp(1j * g @ tau.T)  # (ng, natom)
    sfac = phases @ charges  # structure factor Σ Z_a e^{iG·τ_a}
    e_recip = (2.0 * math.pi / volume) * float(
        np.sum(np.exp(-g2 / (4.0 * eta)) / g2 * np.abs(sfac) ** 2)
    )

    # --- corrections ---------------------------------------------------------
    e_self = -sqrt_eta / math.sqrt(math.pi) * float(np.sum(charges**2))
    total_charge = float(np.sum(charges))
    e_background = -math.pi / (2.0 * eta * volume) * total_charge**2

    return e_real + e_recip + e_self + e_background
