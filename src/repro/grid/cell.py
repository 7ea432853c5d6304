"""Periodic unit cells and the paper's silicon supercell family.

The paper simulates silicon supercells built from the 8-atom simple-cubic
conventional cell with lattice constant 5.43 Å, replicated from 1x1x3
(48 atoms) up to 6x8x8 (3072 atoms).  :func:`silicon_supercell` constructs
exactly this family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from repro.constants import SILICON_LATTICE_BOHR
from repro.utils.validation import require


@dataclass(frozen=True)
class UnitCell:
    """A periodic simulation cell.

    Parameters
    ----------
    lattice:
        3x3 row-vector lattice matrix in bohr (row ``i`` is lattice vector
        ``a_i``).
    species:
        Chemical symbol per atom.
    positions:
        Fractional (crystal) coordinates, shape ``(natom, 3)``.
    """

    lattice: np.ndarray
    species: Tuple[str, ...]
    positions: np.ndarray

    def __post_init__(self) -> None:
        lat = np.asarray(self.lattice, dtype=float)
        pos = np.asarray(self.positions, dtype=float)
        require(lat.shape == (3, 3), f"lattice must be 3x3, got {lat.shape}")
        require(pos.ndim == 2 and pos.shape[1] == 3, f"positions must be (natom,3), got {pos.shape}")
        require(len(self.species) == pos.shape[0], "species/positions length mismatch")
        require(abs(np.linalg.det(lat)) > 1e-12, "lattice is singular")
        object.__setattr__(self, "lattice", lat)
        object.__setattr__(self, "positions", pos % 1.0)
        object.__setattr__(self, "species", tuple(self.species))

    # -- geometry ----------------------------------------------------------
    @property
    def natom(self) -> int:
        return len(self.species)

    @cached_property
    def volume(self) -> float:
        """Cell volume in bohr^3 (always positive)."""
        return float(abs(np.linalg.det(self.lattice)))

    @property
    def reciprocal(self) -> np.ndarray:
        """Reciprocal lattice row vectors ``b_i`` (with the 2*pi factor)."""
        return 2.0 * np.pi * np.linalg.inv(self.lattice).T

    def cartesian_positions(self) -> np.ndarray:
        """Atom positions in bohr, shape ``(natom, 3)``."""
        return self.positions @ self.lattice

    def fractional_to_cartesian(self, frac: np.ndarray) -> np.ndarray:
        return np.asarray(frac, dtype=float) @ self.lattice

    def minimum_image_distance(self, frac_a: np.ndarray, frac_b: np.ndarray) -> float:
        """Minimum-image distance (bohr) between two fractional positions."""
        d = np.asarray(frac_a, float) - np.asarray(frac_b, float)
        d -= np.round(d)
        return float(np.linalg.norm(d @ self.lattice))

    def supercell(self, reps: Sequence[int]) -> "UnitCell":
        """Replicate the cell ``reps = (n1, n2, n3)`` times along each axis."""
        n1, n2, n3 = (int(r) for r in reps)
        require(min(n1, n2, n3) >= 1, "supercell repetitions must be >= 1")
        shifts = np.array(
            [[i, j, k] for i in range(n1) for j in range(n2) for k in range(n3)],
            dtype=float,
        )
        scale = np.array([n1, n2, n3], dtype=float)
        new_pos: List[np.ndarray] = []
        new_species: List[str] = []
        for shift in shifts:
            new_pos.append((self.positions + shift) / scale)
            new_species.extend(self.species)
        lattice = self.lattice * scale[:, None]
        return UnitCell(lattice, tuple(new_species), np.vstack(new_pos))


#: fractional coordinates of the 8-atom diamond-structure conventional cell
_SI_CONVENTIONAL_FRAC = np.array(
    [
        [0.00, 0.00, 0.00],
        [0.50, 0.50, 0.00],
        [0.50, 0.00, 0.50],
        [0.00, 0.50, 0.50],
        [0.25, 0.25, 0.25],
        [0.75, 0.75, 0.25],
        [0.75, 0.25, 0.75],
        [0.25, 0.75, 0.75],
    ]
)


def silicon_cubic_cell(lattice_constant: float = SILICON_LATTICE_BOHR) -> UnitCell:
    """The 8-atom simple-cubic conventional silicon cell (paper Sec. VI)."""
    lattice = np.eye(3) * lattice_constant
    return UnitCell(lattice, ("Si",) * 8, _SI_CONVENTIONAL_FRAC.copy())


def silicon_supercell(
    reps: Sequence[int] = (1, 1, 1), lattice_constant: float = SILICON_LATTICE_BOHR
) -> UnitCell:
    """Silicon supercell of ``8 * n1 * n2 * n3`` atoms.

    The paper's systems: (1,1,3)->48 atoms ... (6,8,8)->3072 atoms.
    """
    return silicon_cubic_cell(lattice_constant).supercell(reps)


def paper_system_atoms() -> List[int]:
    """Atom counts of the silicon systems evaluated in the paper."""
    return [48, 96, 192, 384, 768, 1536, 3072]
