"""Hartwigsen–Goedecker–Hutter (HGH) pseudopotential functional forms.

The paper uses SG15 ONCV pseudopotentials; we substitute the analytic HGH
family (PRB 58, 3641 (1998)) which has the same separable norm-conserving
structure — a local part plus Kleinman–Bylander-type nonlocal projectors —
so every operator application has the same computational shape.

Conventions
-----------
* ``local_potential_g(q)`` returns the *full-space* Fourier transform
  ``∫ V_loc(r) e^{-iqr} d^3r`` of the local channel (hartree·bohr^3); the
  plane-wave code divides by the cell volume and multiplies by structure
  factors.  The ``-Z/r`` Coulomb tail makes the q→0 limit divergent; the
  divergence cancels against Hartree + Ewald G=0 terms for neutral cells,
  and :func:`local_potential_g0_correction` supplies the finite remainder
  (the standard "alpha Z" term).
* Radial projectors ``p_i^l(r)`` follow HGH Eq. (3) and are normalized,
  ``∫ p_i^l(r)^2 r^2 dr = 1``.  Their Fourier–Bessel transforms are done
  numerically on a radial grid (robust for any ``l, i``), with the
  spherical Bessel functions of :func:`spherical_jn`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.utils.validation import require

#: below this argument the closed forms of ``j_l`` lose digits to
#: cancellation (1.7e-13 for ``l = 3`` at 0.25) and the power series is used
_JL_SERIES_BELOW = 2.0
#: series terms: for ``x < 2`` the first one left out is below 1e-20
_JL_SERIES_TERMS = 14
#: ``j_l(x)`` for ``l = 0..3`` from ``s = sin x``, ``c = cos x``, ``u = 1/x``
_JL_CLOSED = (
    lambda s, c, u: s * u,
    lambda s, c, u: u * (s * u - c),
    lambda s, c, u: u * ((3.0 * u * u - 1.0) * s - 3.0 * u * c),
    lambda s, c, u: u * ((15.0 * u * u - 6.0) * u * s - (15.0 * u * u - 1.0) * c),
)


def spherical_jn(l: int, x: np.ndarray) -> np.ndarray:
    """Spherical Bessel function ``j_l(x)`` for ``0 <= l <= 3``, ``x >= 0``.

    Closed forms in ``sin x`` and ``cos x``; below ``_JL_SERIES_BELOW`` the
    series ``j_l(x) = x^l Σ_k (-x²/2)^k / (k! (2l+2k+1)!!)``.  Both are
    within 5e-16 of the exact value (HGH channels stop at ``l = 3``).
    """
    require(0 <= l < len(_JL_CLOSED), f"j_l is tabulated for l <= 3, got l={l}")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = x < _JL_SERIES_BELOW
    xs = x[small]
    term = xs**l / math.prod(range(1, 2 * l + 2, 2))
    total = term
    for k in range(1, _JL_SERIES_TERMS):
        term = term * (-0.5 * xs * xs) / (k * (2 * l + 2 * k + 1))
        total = total + term
    out[small] = total
    xl = x[~small]
    out[~small] = _JL_CLOSED[l](np.sin(xl), np.cos(xl), 1.0 / xl)
    return out


@dataclass(frozen=True)
class HGHParameters:
    """Parameters of one HGH pseudopotential.

    Parameters
    ----------
    symbol:
        Chemical symbol.
    zion:
        Valence (ionic) charge.
    rloc:
        Local-channel Gaussian width (bohr).
    cloc:
        Local polynomial coefficients ``C1..C4`` (unused entries zero).
    rl:
        Projector widths per angular momentum channel ``l = 0, 1, ...``.
    h_diag:
        Diagonal coupling constants ``h^l_{ii}`` per channel; the
        off-diagonal elements follow the fixed HGH relations
        (:func:`h_matrix`).
    """

    symbol: str
    zion: float
    rloc: float
    cloc: Tuple[float, float, float, float]
    rl: Tuple[float, ...] = ()
    h_diag: Tuple[Tuple[float, ...], ...] = ()

    def __post_init__(self) -> None:
        require(self.zion > 0, "zion must be positive")
        require(self.rloc > 0, "rloc must be positive")
        require(len(self.cloc) == 4, "cloc must have 4 entries")
        require(len(self.rl) == len(self.h_diag), "rl / h_diag channel mismatch")
        # the nonlocal projectors' real harmonics stop at p
        require(self.lmax <= 1, f"{self.symbol}: channels beyond l = 1 are not implemented")

    @property
    def lmax(self) -> int:
        """Highest angular-momentum channel with projectors (-1 if none)."""
        return len(self.rl) - 1

    def nproj(self, l: int) -> int:
        """Number of radial projectors in channel ``l``."""
        return len(self.h_diag[l]) if 0 <= l < len(self.h_diag) else 0


# HGH Eqs. (19)-(21): fixed ratios tying off-diagonal h to diagonal ones.
_H_OFFDIAG_RATIOS: Dict[int, Dict[Tuple[int, int], float]] = {
    0: {
        (0, 1): -0.5 * math.sqrt(3.0 / 5.0),
        (0, 2): 0.5 * math.sqrt(5.0 / 21.0),
        (1, 2): -0.5 * math.sqrt(100.0 / 63.0),
    },
    1: {
        (0, 1): -0.5 * math.sqrt(5.0 / 7.0),
        (0, 2): math.sqrt(35.0 / 11.0) / 6.0,
        (1, 2): -14.0 / (6.0 * math.sqrt(11.0)),
    },
    2: {
        (0, 1): -0.5 * math.sqrt(7.0 / 9.0),
        (0, 2): 0.5 * math.sqrt(63.0 / 143.0),
        (1, 2): -0.5 * 18.0 / math.sqrt(143.0),
    },
}


def h_matrix(params: HGHParameters, l: int) -> np.ndarray:
    """Full symmetric ``h^l`` coupling matrix for channel ``l``.

    Off-diagonal entries are fixed multiples of diagonal ones per HGH
    Eqs. (2.11)-(2.13); e.g. ``h^0_{12} = -1/2 sqrt(3/5) h^0_{22}``, which
    reproduces the tabulated Si value ``-1.26189``.
    """
    diag = params.h_diag[l]
    n = len(diag)
    h = np.diag(np.asarray(diag, dtype=float))
    ratios = _H_OFFDIAG_RATIOS.get(l, {})
    for (i, j), ratio in ratios.items():
        if i < n and j < n:
            h[i, j] = h[j, i] = ratio * diag[j]
    return h


def local_potential_r(params: HGHParameters, r: np.ndarray) -> np.ndarray:
    """Real-space local potential ``V_loc(r)`` (HGH Eq. (1))."""
    r = np.asarray(r, dtype=float)
    rr = np.where(r < 1e-12, 1e-12, r)
    x = rr / params.rloc
    c1, c2, c3, c4 = params.cloc
    poly = c1 + c2 * x**2 + c3 * x**4 + c4 * x**6
    coulomb = -(params.zion / rr) * np.vectorize(math.erf)(x / math.sqrt(2.0))
    return coulomb + np.exp(-0.5 * x**2) * poly


def local_potential_g(params: HGHParameters, q: np.ndarray) -> np.ndarray:
    """Fourier transform of the local channel (valid for ``q > 0``).

    ``V(q) = 4*pi * exp(-t^2/2) * [ -Z/q^2 + sqrt(pi/2) rloc^3 P(t) ]``
    with ``t = q*rloc`` and ``P`` the quartic-in-``t^2`` HGH polynomial.
    Entries with ``q == 0`` are returned as 0 — the caller handles the
    G = 0 channel via :func:`local_potential_g0_correction`.
    """
    q = np.asarray(q, dtype=float)
    t2 = (q * params.rloc) ** 2
    c1, c2, c3, c4 = params.cloc
    poly = (
        c1
        + c2 * (3.0 - t2)
        + c3 * (15.0 - 10.0 * t2 + t2**2)
        + c4 * (105.0 - 105.0 * t2 + 21.0 * t2**2 - t2**3)
    )
    gauss = np.exp(-0.5 * t2)
    out = np.zeros_like(q)
    nz = q > 1e-12
    out[nz] = 4.0 * math.pi * gauss[nz] * (
        -params.zion / q[nz] ** 2
        + math.sqrt(math.pi / 2.0) * params.rloc**3 * poly[nz]
    )
    return out


def local_potential_g0_correction(params: HGHParameters) -> float:
    """Finite part of ``V(q->0)`` after removing the ``-4*pi*Z/q^2`` tail.

    ``lim_{q->0} [V(q) + 4 pi Z / q^2] = 4 pi [ Z rloc^2 / 2
    + sqrt(pi/2) rloc^3 (C1 + 3 C2 + 15 C3 + 105 C4) ]`` — the "alpha Z"
    term entering the total energy of neutral cells.
    """
    c1, c2, c3, c4 = params.cloc
    poly0 = c1 + 3.0 * c2 + 15.0 * c3 + 105.0 * c4
    return 4.0 * math.pi * (
        0.5 * params.zion * params.rloc**2
        + math.sqrt(math.pi / 2.0) * params.rloc**3 * poly0
    )


def projector_radial(params: HGHParameters, l: int, i: int, r: np.ndarray) -> np.ndarray:
    """Normalized radial projector ``p_i^l(r)`` (HGH Eq. (3)), ``i`` 0-based."""
    require(0 <= l <= params.lmax, f"channel l={l} not present")
    require(0 <= i < params.nproj(l), f"projector i={i} not present in channel {l}")
    rl = params.rl[l]
    n = i + 1
    expo = l + (4.0 * n - 1.0) / 2.0
    norm = math.sqrt(2.0) / (rl**expo * math.sqrt(math.gamma(expo)))
    r = np.asarray(r, dtype=float)
    return norm * r ** (l + 2 * (n - 1)) * np.exp(-0.5 * (r / rl) ** 2)


def projector_fourier(
    params: HGHParameters, l: int, i: int, q: np.ndarray, nr: int = 512
) -> np.ndarray:
    """Fourier–Bessel transform ``4*pi ∫ p(r) j_l(qr) r^2 dr``.

    Evaluated by Simpson-type quadrature on ``[0, rcut]`` with
    ``rcut = 10 r_l`` (the Gaussian tail is ~1e-22 there).  Vectorized over
    all requested ``q`` simultaneously.
    """
    rl = params.rl[l]
    rcut = 10.0 * rl
    r = np.linspace(0.0, rcut, nr)
    dr = r[1] - r[0]
    pr = projector_radial(params, l, i, r) * r**2
    q = np.asarray(q, dtype=float)
    # j_l(q r): shape (nq, nr); trapezoid weights are fine at nr=512
    jl = spherical_jn(l, np.outer(q.ravel(), r))
    w = np.full(nr, dr)
    w[0] = w[-1] = 0.5 * dr
    vals = 4.0 * math.pi * (jl * pr) @ w
    return vals.reshape(q.shape)
