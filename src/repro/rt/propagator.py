"""Shared propagation machinery: state container, trajectory recording,
and the base propagator driving observables.

All propagators evolve a :class:`TDState` ``(Phi, sigma, t)`` and append
per-step observables to a :class:`PropagationRecord` — exactly the series
the paper plots (dipole x, total energy, selected sigma elements).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.hamiltonian.hamiltonian import Hamiltonian
from repro.hartree.ewald import ewald_energy
from repro.observables.dipole import cell_centered_coordinates, dipole_moment
from repro.observables.energy import td_total_energy
from repro.occupation.sigma import (
    clip_and_normalize,
    density_from_orbitals_diag,
    diagonalize_sigma,
    hermitize,
    rotate_orbitals,
    trace_sigma,
)
from repro.trace import traced
from repro.utils.validation import require

#: the ``sigma_<i>_<j>`` series :meth:`PropagationRecord.as_arrays` names
_SIGMA_KEY = re.compile(r"sigma_(-?\d+)_(-?\d+)$")


@dataclass
class TDState:
    """Propagated state: orbital block (rows), occupation matrix, time."""

    phi: np.ndarray
    sigma: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        require(self.phi.ndim == 2, "phi must be (nbands, ngrid)")
        require(
            self.sigma.shape == (self.phi.shape[0], self.phi.shape[0]),
            "sigma must be (nbands, nbands)",
        )
        self.sigma = np.asarray(self.sigma, dtype=complex)
        self.phi = np.asarray(self.phi, dtype=complex)

    def copy(self) -> "TDState":
        return TDState(self.phi.copy(), self.sigma.copy(), self.time)

    @property
    def nbands(self) -> int:
        return self.phi.shape[0]

    def particle_number(self, degeneracy: float = 1.0) -> float:
        return degeneracy * trace_sigma(self.sigma)


@dataclass
class StepStats:
    """Per-step solver statistics (SCF counts drive the perf model).

    A step read back from a file has every field ``None``: files hold no
    solver statistics, so each one is unknown there."""

    #: applications of the fixed-point map T (one ``H`` each), all loops
    scf_iterations: Optional[int] = 0
    outer_iterations: Optional[int] = 0
    #: dense exchange applications the step asks for (per PT-IM iteration,
    #: ACE build or RK4 stage); the Hamiltonian's record may answer the first
    fock_applications: Optional[int] = 0
    ace_builds: Optional[int] = 0
    #: the last stopping residual of the step's (last) fixed-point loop:
    #: relative density change between its final two iterates
    residual: Optional[float] = 0.0
    converged: Optional[bool] = True


@dataclass
class PropagationRecord:
    """Time series of observables collected during propagation."""

    times: List[float] = field(default_factory=list)
    dipole: List[np.ndarray] = field(default_factory=list)
    energy: List[float] = field(default_factory=list)
    particle_number: List[float] = field(default_factory=list)
    sigma_samples: Dict[Tuple[int, int], List[complex]] = field(default_factory=dict)
    field_values: List[np.ndarray] = field(default_factory=list)
    stats: List[StepStats] = field(default_factory=list)

    def as_arrays(self) -> Dict[str, np.ndarray]:
        out = {
            "times": np.asarray(self.times),
            "dipole": np.asarray(self.dipole),
            "energy": np.asarray(self.energy),
            "particle_number": np.asarray(self.particle_number),
            "field": np.asarray(self.field_values),
        }
        for key, series in self.sigma_samples.items():
            # dtype pinned: an empty series would otherwise come out float64
            # and break the complex round-trip through save_npz/load_npz
            out[f"sigma_{key[0]}_{key[1]}"] = np.asarray(series, dtype=complex)
        return out

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "PropagationRecord":
        """Inverse of :meth:`as_arrays`: ``from_arrays(a).as_arrays()``
        reproduces ``a`` bit for bit.  Per-step solver stats are not part
        of the arrays, so every field of the rebuilt record's
        :class:`StepStats` is ``None``."""
        required = ("times", "dipole", "energy", "particle_number", "field")
        missing = [key for key in required if key not in arrays]
        if missing:
            raise ValueError(f"trajectory arrays are missing series: {', '.join(missing)}")
        record = cls(
            times=[float(t) for t in arrays["times"]],
            dipole=list(np.asarray(arrays["dipole"])),
            energy=[float(e) for e in arrays["energy"]],
            particle_number=[float(x) for x in arrays["particle_number"]],
            field_values=list(np.asarray(arrays["field"])),
            stats=[StepStats(*[None] * len(fields(StepStats))) for _ in arrays["times"]],
        )
        for key, arr in arrays.items():
            m = _SIGMA_KEY.match(key)
            if m:
                record.sigma_samples[(int(m.group(1)), int(m.group(2)))] = [
                    complex(v) for v in arr
                ]
        return record


class PropagatorBase:
    """Common observable plumbing; subclasses implement :meth:`step`.

    Parameters
    ----------
    ham:
        The Hamiltonian (carries functional, field, pseudos).
    track_sigma:
        Occupation-matrix elements to record each step, e.g.
        ``[(0, 2), (22, 22)]`` for the paper's Fig. 8.
    record_energy:
        Record the total energy of each observed state.  For a hybrid
        this applies the dense exchange to the state's eigenbasis image,
        which the next step's first dense evaluation asks for again and
        gets from the Hamiltonian's record: only an observation no step
        starts from (the last) costs an application of its own.
    """

    name = "base"
    #: the dataclass of the ``[propagation.options]`` it takes (``None``: none)
    options_class = None

    def __init__(
        self,
        ham: Hamiltonian,
        track_sigma: Optional[List[Tuple[int, int]]] = None,
        record_energy: bool = True,
    ) -> None:
        self.ham = ham
        self.grid = ham.grid
        self.track_sigma = list(track_sigma or [])
        self.record_energy = record_energy
        self._coords = cell_centered_coordinates(self.grid)
        self._e_ewald = ewald_energy(ham.cell)
        self.record = PropagationRecord()
        for key in self.track_sigma:
            self.record.sigma_samples[key] = []

    # -- to be provided by subclasses -----------------------------------------
    def step(self, state: TDState, dt: float) -> Tuple[TDState, StepStats]:
        raise NotImplementedError

    # -- driver -----------------------------------------------------------------
    def density(self, phi_t: np.ndarray, d: np.ndarray) -> np.ndarray:
        """The density of sigma's eigenbasis image: rows ``Phi Q``, eigenvalues ``d``."""
        rho = density_from_orbitals_diag(self.grid, phi_t, d, degeneracy=self.ham.degeneracy)
        return clip_and_normalize(rho, self.ham.n_electrons, self.grid.dv)

    @traced("rt.observe")
    def observe(self, state: TDState, stats: Optional[StepStats] = None) -> None:
        """Append the current observables to the record.

        Moves the Hamiltonian to the state's time first — otherwise the
        kinetic operator would carry A(t) from whatever midpoint or stage
        the propagator evaluated last, corrupting the energy.  One
        decomposition and one rotation serve the density and the energy.
        """
        self.ham.set_time(state.time)
        d, q = diagonalize_sigma(hermitize(state.sigma))
        phi_t = rotate_orbitals(state.phi, q)
        rho = self.density(phi_t, d)
        self.record.times.append(state.time)
        self.record.dipole.append(dipole_moment(self.grid, rho, self._coords))
        self.record.particle_number.append(state.particle_number(self.ham.degeneracy))
        if self.ham.field is not None:
            self.record.field_values.append(self.ham.field.electric_field(state.time))
        else:
            self.record.field_values.append(np.zeros(3))
        for key in self.track_sigma:
            i, j = key
            self.record.sigma_samples[key].append(complex(state.sigma[i, j]))
        if self.record_energy:
            e = td_total_energy(self.ham, phi_t, d, rho, self._e_ewald)
            self.record.energy.append(e.total)
        else:
            self.record.energy.append(np.nan)
        self.record.stats.append(stats or StepStats())

    def propagate(
        self,
        state: TDState,
        dt: float,
        n_steps: int,
        observe_every: int = 1,
        on_step=None,
    ) -> TDState:
        """Run ``n_steps`` of size ``dt``, recording observables.

        The initial state is recorded before the first step, and the
        final state is always recorded — even when ``n_steps`` is not a
        multiple of ``observe_every``.

        ``on_step(n, n_steps)`` (when given) is called after each
        completed step — the hook the job service uses to report live
        progress; exceptions it raises abort the propagation.
        """
        require(dt > 0 and n_steps >= 0, "dt must be positive, n_steps >= 0")
        require(observe_every >= 1, "observe_every must be >= 1")
        self.observe(state)
        stats = None
        last_observed = 0
        for n in range(1, n_steps + 1):
            state, stats = self.step(state, dt)
            if n % observe_every == 0:
                self.observe(state, stats)
                last_observed = n
            if on_step is not None:
                on_step(n, n_steps)
        if last_observed != n_steps and n_steps > 0:
            self.observe(state, stats)
        return state
