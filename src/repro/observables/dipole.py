"""Electronic dipole moment (the paper's Fig. 7(b)(d) observable).

In a periodic cell the position operator is defined cell-centered with
minimum-image wrapping (sawtooth); for the induced-dipole dynamics the
paper plots this is the standard choice — responses stay far from the
wrap discontinuity for the field strengths involved.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import numpy as np

from repro.grid.fftgrid import PlaneWaveGrid
from repro.trace import traced


def cell_centered_coordinates(grid: PlaneWaveGrid) -> np.ndarray:
    """Cartesian coordinates of grid points, wrapped to the cell center.

    Returns shape ``(ngrid, 3)`` in bohr, fractional range [-1/2, 1/2)
    mapped through the lattice.
    """
    n1, n2, n3 = grid.shape
    f1 = (np.arange(n1) / n1 + 0.5) % 1.0 - 0.5
    f2 = (np.arange(n2) / n2 + 0.5) % 1.0 - 0.5
    f3 = (np.arange(n3) / n3 + 0.5) % 1.0 - 0.5
    fa, fb, fc = np.meshgrid(f1, f2, f3, indexing="ij")
    frac = np.stack([fa.ravel(), fb.ravel(), fc.ravel()], axis=-1)
    return frac @ grid.cell.lattice


@traced("observables.dipole")
def dipole_moment(
    grid: PlaneWaveGrid,
    rho: np.ndarray,
    coords: Optional[np.ndarray] = None,
    reference: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Electronic dipole ``-∫ r rho(r) dr`` (electron charge = -1).

    Parameters
    ----------
    rho:
        Real electron density, flat ``(ngrid,)``.
    coords:
        Precomputed :func:`cell_centered_coordinates` (recomputed if
        omitted; pass it in propagation loops).
    reference:
        Optional dipole to subtract (e.g. the t=0 value, so traces start
        at zero as in Fig. 7).
    """
    if coords is None:
        coords = cell_centered_coordinates(grid)
    d = -(rho @ coords) * grid.dv
    if reference is not None:
        d = d - reference
    return d
