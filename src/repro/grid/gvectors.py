"""Reciprocal-lattice (G) vectors on an FFT grid.

A plane-wave basis at the Γ point is the set of reciprocal lattice vectors
``G`` with kinetic energy ``|G|^2 / 2 <= Ecut``.  This class carries the
*full* FFT box (every table below has the box shape) and the boolean
sphere mask; :class:`~repro.grid.fftgrid.PlaneWaveGrid` turns the mask
once into a flat index.  As in PWDFT, the solvers store each orbital as
its ``npw`` coefficients on that index (unitary-scaled, see
``grid/fftgrid.py``) and visit the full box only to multiply by a
potential or form a density; real-space rows are the API-boundary
representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from repro.grid.cell import UnitCell
from repro.utils.validation import require


def _fft_frequencies(n: int) -> np.ndarray:
    """Integer FFT frequencies in numpy ordering: 0,1,...,-2,-1.

    Pure index arithmetic (identical to numpy's ``fftfreq(n, 1/n)``): the
    G-vector setup is not a transform, so it must not touch an FFT
    library — backend tallies stay exactly the hot-path 3-D transforms.
    """
    m = np.arange(n, dtype=int)
    m[m > (n - 1) // 2] -= n
    return m


@dataclass(frozen=True)
class GVectors:
    """G-vectors of an FFT box for a given cell.

    Parameters
    ----------
    cell:
        The periodic cell.
    shape:
        FFT grid dimensions ``(n1, n2, n3)``.
    ecut:
        Wavefunction kinetic-energy cutoff in hartree used for the sphere
        mask.
    """

    cell: UnitCell
    shape: Tuple[int, int, int]
    ecut: float

    def __post_init__(self) -> None:
        require(len(self.shape) == 3 and min(self.shape) >= 2, f"bad FFT shape {self.shape}")
        require(self.ecut > 0.0, "ecut must be positive")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))

    @cached_property
    def integer_coords(self) -> np.ndarray:
        """Integer Miller indices of every grid point, shape ``(*shape, 3)``."""
        f1 = _fft_frequencies(self.shape[0])
        f2 = _fft_frequencies(self.shape[1])
        f3 = _fft_frequencies(self.shape[2])
        m1, m2, m3 = np.meshgrid(f1, f2, f3, indexing="ij")
        return np.stack([m1, m2, m3], axis=-1)

    @cached_property
    def cartesian(self) -> np.ndarray:
        """Cartesian G vectors in bohr^-1, shape ``(*shape, 3)``."""
        return self.integer_coords.astype(float) @ self.cell.reciprocal

    @cached_property
    def g2(self) -> np.ndarray:
        """``|G|^2`` on the grid, shape ``shape``."""
        g = self.cartesian
        return np.einsum("...i,...i->...", g, g)

    @cached_property
    def kinetic(self) -> np.ndarray:
        """Kinetic energies ``|G|^2 / 2`` (hartree)."""
        return 0.5 * self.g2

    @cached_property
    def sphere_mask(self) -> np.ndarray:
        """Boolean mask of G vectors inside the wavefunction cutoff sphere."""
        return self.kinetic <= self.ecut + 1e-12

    @cached_property
    def npw(self) -> int:
        """Number of plane waves inside the cutoff sphere."""
        return int(self.sphere_mask.sum())

    @cached_property
    def gzero_index(self) -> Tuple[int, int, int]:
        """Grid index of the G = 0 component (always ``(0,0,0)``)."""
        return (0, 0, 0)

    def structure_factor(self, frac_position: np.ndarray) -> np.ndarray:
        """``exp(-i G . tau)`` for an atom at fractional position ``tau``.

        With integer Miller indices ``m`` and fractional coordinates ``f``,
        ``G . tau = 2*pi * m . f`` exactly, which avoids cartesian rounding.
        """
        phase = -2.0j * np.pi * (self.integer_coords @ np.asarray(frac_position, float))
        return np.exp(phase)

    def structure_factors(self, frac_positions: np.ndarray) -> np.ndarray:
        """Structure factors for many atoms, shape ``(natom, *shape)``."""
        frac = np.asarray(frac_positions, float)
        phase = -2.0j * np.pi * np.tensordot(frac, self.integer_coords, axes=([1], [3]))
        return np.exp(phase)


def minimal_fft_shape(cell: UnitCell, ecut: float, factor: float = 2.0) -> Tuple[int, int, int]:
    """Smallest even FFT grid resolving products of cutoff-sphere waves.

    ``factor=2`` gives the density grid (no aliasing in |phi|^2); the
    wavefunction grid in the paper is half the density grid per dimension.
    Sizes are rounded up to the next even number with small prime factors
    (2, 3, 5, 7) so numpy's FFT stays fast.
    """
    require(ecut > 0.0, "ecut must be positive")
    gmax = np.sqrt(2.0 * ecut)
    shape = []
    for i in range(3):
        b_norm = np.linalg.norm(cell.reciprocal[i])
        n = int(np.ceil(factor * gmax / b_norm)) * 2 + 2
        shape.append(_next_fast_even(n))
    return tuple(shape)


def _next_fast_even(n: int) -> int:
    """Next even integer >= n whose prime factors are all <= 7."""
    n = max(4, n + (n % 2))
    while True:
        m = n
        for p in (2, 3, 5, 7):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 2
