"""Fermi-Dirac occupations at finite electronic temperature.

The paper's mixed-state initial condition (Sec. II-A): at 8000 K the
orbitals are fractionally occupied by the Fermi–Dirac distribution; the
initial occupation matrix ``sigma(0)`` is diagonal with these fractions.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.constants import SPIN_DEGENERACY
from repro.trace import traced
from repro.utils.validation import require


def fermi_dirac(eps: np.ndarray, mu: float, kt: float) -> np.ndarray:
    """Occupation fractions ``f((eps - mu)/kT)`` in [0, 1], overflow-safe."""
    eps = np.asarray(eps, dtype=float)
    if kt <= 0.0:
        # zero-temperature limit: step function with 1/2 at the level
        f = np.where(eps < mu, 1.0, 0.0)
        f[np.abs(eps - mu) < 1e-14] = 0.5
        return f
    x = np.clip((eps - mu) / kt, -700.0, 700.0)
    return 1.0 / (1.0 + np.exp(x))


def find_fermi_level(
    eps: np.ndarray,
    n_electrons: float,
    kt: float,
    degeneracy: float = SPIN_DEGENERACY,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Chemical potential such that ``degeneracy * Σ f_i = n_electrons``.

    Bisection on a bracket spanning all eigenvalues; robust for any kt.
    """
    eps = np.sort(np.asarray(eps, dtype=float))
    require(n_electrons > 0, "need a positive electron count")
    require(
        n_electrons <= degeneracy * eps.size + 1e-9,
        f"{n_electrons} electrons cannot fit in {eps.size} orbitals "
        f"x degeneracy {degeneracy}",
    )
    pad = 30.0 * max(kt, 1e-3) + 1.0
    lo, hi = eps[0] - pad, eps[-1] + pad

    def count(mu: float) -> float:
        return degeneracy * float(fermi_dirac(eps, mu, kt).sum())

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        c = count(mid)
        if abs(c - n_electrons) < tol:
            return mid
        if c < n_electrons:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@traced("occupation.fermi")
def fermi_occupations(
    eps: np.ndarray,
    n_electrons: float,
    kt: float,
    degeneracy: float = SPIN_DEGENERACY,
) -> Tuple[np.ndarray, float]:
    """Occupation fractions (per orbital, in [0,1]) and the Fermi level."""
    mu = find_fermi_level(eps, n_electrons, kt, degeneracy)
    return fermi_dirac(np.asarray(eps, float), mu, kt), mu


def smearing_entropy(f: np.ndarray, degeneracy: float = SPIN_DEGENERACY) -> float:
    """Electronic entropy ``-k_B Σ [f ln f + (1-f) ln(1-f)]`` (in units of k_B·deg).

    Returned *without* the k_B factor: multiply by ``kT`` for the ``-TS``
    free-energy term in hartree.
    """
    f = np.clip(np.asarray(f, dtype=float), 1e-300, 1.0 - 1e-16)
    s = -(f * np.log(f) + (1.0 - f) * np.log(1.0 - f))
    return degeneracy * float(s.sum())
