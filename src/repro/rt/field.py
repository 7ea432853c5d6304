"""Time-dependent external fields (velocity gauge).

The paper drives silicon with a 380 nm laser pulse (Fig. 7(a)).  We define
the pulse through an analytic vector potential

``A(t) = A0 * exp(-(t-t0)^2 / (2 s^2)) * cos(w t) * e_pol``

so the electric field ``E = -dA/dt`` is exact (no numerical integration
drift) and both quantities are available at arbitrary times — the
propagators sample them at midpoints and RK4 stage times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.constants import AU_PER_FEMTOSECOND, laser_omega_from_wavelength_nm


def _polarization(value) -> Tuple[float, float, float]:
    """``value`` as a unit 3-vector, refused by name when it is not a
    nonzero 3-vector of numbers (a unit axis vector is kept bit for bit)."""
    try:
        pol = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        pol = np.empty(0)
    if pol.shape != (3,):
        raise ValueError(f"polarization must be a 3-vector of numbers, got {value!r}")
    n = np.linalg.norm(pol)
    if n < 1e-12:
        raise ValueError(f"polarization must be a nonzero vector, got {value!r}")
    return tuple(pol / n)


@dataclass(frozen=True)
class ZeroField:
    """No external field (energy-conservation tests)."""

    def vector_potential(self, t: float) -> np.ndarray:
        return np.zeros(3)

    def electric_field(self, t: float) -> np.ndarray:
        return np.zeros(3)


@dataclass(frozen=True)
class GaussianLaserPulse:
    """Gaussian-envelope laser pulse in the velocity gauge.

    Parameters
    ----------
    amplitude:
        Peak electric field (a.u.; 1 a.u. = 514 V/nm).
    wavelength_nm:
        Vacuum wavelength; the paper uses 380 nm.
    center_fs:
        Envelope peak time in femtoseconds (paper's pulse peaks mid-run,
        ~15 fs into the 30 fs simulation).
    fwhm_fs:
        Intensity FWHM of the envelope in femtoseconds.
    polarization:
        Direction, normalized to a unit vector; the paper polarizes along x.
    """

    amplitude: float = 0.01
    wavelength_nm: float = 380.0
    center_fs: float = 15.0
    fwhm_fs: float = 6.0
    polarization: Tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "polarization", _polarization(self.polarization))

    @property
    def omega(self) -> float:
        """Carrier angular frequency (hartree)."""
        return laser_omega_from_wavelength_nm(self.wavelength_nm)

    @property
    def t0(self) -> float:
        return self.center_fs * AU_PER_FEMTOSECOND

    @property
    def sigma_t(self) -> float:
        """Gaussian width of the *field* envelope (a.u. time)."""
        # FWHM of intensity = 2 sqrt(2 ln 2) * sigma_I; field sigma = sigma_I*sqrt(2)
        fwhm_au = self.fwhm_fs * AU_PER_FEMTOSECOND
        return fwhm_au / (2.0 * math.sqrt(2.0 * math.log(2.0))) * math.sqrt(2.0)

    @property
    def a0(self) -> float:
        """Vector-potential amplitude giving peak field ``amplitude``."""
        return self.amplitude / self.omega

    def _envelope(self, t: float) -> float:
        x = (t - self.t0) / self.sigma_t
        return math.exp(-0.5 * x * x)

    def vector_potential(self, t: float) -> np.ndarray:
        a = self.a0 * self._envelope(t) * math.cos(self.omega * t)
        return a * np.asarray(self.polarization)

    def electric_field(self, t: float) -> np.ndarray:
        """``E = -dA/dt`` (exact derivative of the analytic form)."""
        env = self._envelope(t)
        denv = -(t - self.t0) / self.sigma_t**2 * env
        e = -self.a0 * (denv * math.cos(self.omega * t) - env * self.omega * math.sin(self.omega * t))
        return e * np.asarray(self.polarization)


@dataclass(frozen=True)
class StaticKick:
    """Delta-kick field for absorption-spectrum runs.

    An instantaneous momentum boost at t=0 is represented by a constant
    vector potential ``A = kick * e_pol`` for t > 0 (the standard
    velocity-gauge delta kick: E(t) = -kick * delta(t) * e_pol), with
    ``polarization`` normalized to the unit vector ``e_pol`` as the
    pulse's is, so ``|A| = kick`` in any direction.
    """

    kick: float = 1e-3
    polarization: Tuple[float, float, float] = (1.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "polarization", _polarization(self.polarization))

    def vector_potential(self, t: float) -> np.ndarray:
        if t < 0.0:
            return np.zeros(3)
        return self.kick * np.asarray(self.polarization)

    def electric_field(self, t: float) -> np.ndarray:
        return np.zeros(3)
