"""The :class:`Simulation` facade: one object from config to observables.

Replaces the hand-wired six-object chain (cell → grid → field →
Hamiltonian → ``run_scf`` → propagator) used by every entry point with::

    sim = Simulation.from_config({"system": {...}, "propagation": {...}})
    result = sim.propagate()          # SCF runs lazily, once
    result.save_npz("run.npz")
    sim.save_checkpoint("ckpt.npz")   # ... later ...
    Simulation.resume("ckpt.npz").propagate(n_steps=100)

Components are built lazily from the config through the one name table
of :mod:`repro.api.components`; the low-level objects stay reachable
(``sim.grid``, ``sim.hamiltonian``) so facade users can drop down
whenever the high-level surface is too coarse.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.api.config import (
    ResultError,
    SimulationConfig,
    check_config_matches,
    overridden,
)
from repro.api.components import build, propagator_options
from repro.backend import Backend, FFTTally
from repro.constants import AU_PER_ATTOSECOND
from repro.grid.fftgrid import PlaneWaveGrid
from repro.hamiltonian.hamiltonian import Hamiltonian
from repro.parallel.context import ParallelContext, ParallelRunInfo
from repro.parallel.ledger import CostLedger
from repro.rt.propagator import PropagationRecord, TDState
from repro.scf.groundstate import GroundState, run_scf
from repro.trace import window
from repro.utils.io import atomic_savez

ConfigLike = Union[SimulationConfig, Mapping[str, Any]]

RESULT_VERSION = 1

#: a result file that can restart its run without an SCF (a checkpoint)
#: carries ``GroundState.to_arrays`` under this prefix
GS_PREFIX = "gs_"

#: state keys of a checkpoint written by repro <= 1.13 -> their names here
_LEGACY_STATE_KEYS = {"phi": "final_phi", "sigma": "final_sigma", "time": "final_time"}


def _final_state_arrays(state: TDState) -> Dict[str, Any]:
    return {
        "final_phi": np.asarray(state.phi, dtype=complex),
        "final_sigma": np.asarray(state.sigma, dtype=complex),
        "final_time": np.float64(state.time),
    }


def write_result_npz(path, result: "SimulationResult") -> Path:
    """The one writer of the result-file layout, from the one result type.

    :meth:`SimulationResult.save_npz`, the result store's
    ``runs/<run_id>.npz`` and :meth:`Simulation.save_checkpoint` are
    this file: config provenance, the final state, the ``parallel``
    block when the run had one, every observable series and — for a
    result without a record, i.e. a checkpoint — the converged ground
    state under ``gs_*``; the keys :func:`read_result_npz` reads back.
    It is written atomically, so replacing an existing file leaves the
    old one or the new one, never a torn one.
    """
    payload: Dict[str, Any] = {
        "result_version": np.int64(RESULT_VERSION),
        "config_json": np.str_(result.config.to_json()),
        **_final_state_arrays(result.final_state),
    }
    if result.parallel is not None:
        payload["parallel_json"] = np.str_(json.dumps(result.parallel.to_dict(), sort_keys=True))
    payload.update(result.observables())
    if result.record is None and result.ground_state is not None:
        payload.update(result.ground_state.to_arrays(prefix=GS_PREFIX))
    return atomic_savez(path, **payload)


def open_result_npz(path):
    """Open a result ``.npz`` with readable failure modes: a missing file
    or a corrupt/truncated archive raises :class:`ResultError` naming the
    path instead of a raw ``FileNotFoundError`` / ``BadZipFile``."""
    import zipfile

    path = Path(path)
    if not path.exists():
        raise ResultError(f"result file {path} does not exist")
    try:
        return np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise ResultError(
            f"{path} is not a readable result file (corrupt or not an .npz): {exc}"
        ) from exc


def read_result_npz(path, expected_config: Optional[SimulationConfig] = None) -> "SimulationResult":
    """The one reader of the layout :func:`write_result_npz` writes.

    Raises :class:`ResultError` naming the path for a missing, unreadable,
    wrong-kind or too-new file, and :class:`ConfigError` naming the
    differing keys when the embedded config is not ``expected_config``.
    A checkpoint comes back with ``record`` ``None`` and its ground
    state; a file holds no FFT tally, so ``fft`` is ``None``.  A
    checkpoint written by repro <= 1.13 (``phi`` / ``sigma`` / ``time``
    / ``parallel_ledger_json``, its own ``version``) reads as the file
    :meth:`Simulation.save_checkpoint` writes now: its ``parallel``
    block is that ledger, as every block is the ledger plus the rank
    tally.
    """
    path = Path(path)
    with open_result_npz(path) as data:
        if "config_json" not in data:
            raise ResultError(f"{path} is not a repro result file (missing config_json)")
        version = int(data["result_version"]) if "result_version" in data else 0
        if version > RESULT_VERSION:
            raise ResultError(
                f"result file {path} has result_version {version}; this "
                f"build reads <= {RESULT_VERSION} — upgrade repro to read it"
            )
        config = SimulationConfig.from_json(str(data["config_json"]))
        check_config_matches(config, expected_config, path)
        parallel = None
        if "parallel_json" in data:
            parallel = ParallelRunInfo.from_dict(json.loads(str(data["parallel_json"])))
        if "parallel_ledger_json" in data:
            ledger = CostLedger.from_dict(json.loads(str(data["parallel_ledger_json"])))
            parallel = ParallelRunInfo(ledger)
        ground_state = None
        if GS_PREFIX + "orbitals" in data:
            ground_state = GroundState.from_arrays(data, f"result file {path}", prefix=GS_PREFIX)
        skip = ("config_json", "result_version", "parallel_json", "parallel_ledger_json", "version")
        arrays = {
            _LEGACY_STATE_KEYS.get(k, k): np.array(data[k])
            for k in data.files
            if k not in skip and not k.startswith(GS_PREFIX)
        }
    if "final_phi" not in arrays:
        raise ResultError(f"{path} is not a repro result file (no final state)")
    final_state = TDState(
        phi=arrays.pop("final_phi"),
        sigma=arrays.pop("final_sigma"),
        time=float(arrays.pop("final_time")),
    )
    try:
        record = PropagationRecord.from_arrays(arrays) if arrays else None
    except ValueError as exc:
        raise ResultError(f"result file {path}: {exc}") from exc
    return SimulationResult(config, record, final_state, ground_state, parallel=parallel)


@dataclass
class SimulationResult:
    """Everything one propagation produced, with provenance.

    ``record`` holds the observable time series (``None`` for a
    checkpoint, which has none); ``final_state`` is the state the
    trajectory ended in (feed it back through a checkpoint to
    continue); ``config`` is the exact configuration that ran.  The one
    type a run's outcome has in memory: :meth:`Simulation.propagate`
    returns it, :func:`write_result_npz` writes every result file from
    it (a checkpoint is a result without a record), :func:`read_result_npz`
    reads it back from any of them, and :meth:`ResultStore.add_run
    <repro.store.store.ResultStore.add_run>` /
    :meth:`~repro.store.store.ResultStore.load_result` store it and add
    back the ``fft`` tally its row kept.
    """

    config: SimulationConfig
    record: Optional[PropagationRecord]
    final_state: TDState
    ground_state: Optional[GroundState] = None
    #: FFT counts of the propagate() call that produced this result,
    #: including a lazily-triggered SCF and any distributed-exchange
    #: rank work (None on a result read from a file); not in the file —
    #: the store keeps it on the run's row
    fft: Optional[FFTTally] = None
    #: communication accounting of the propagate() call when the
    #: ``[parallel]`` section is active (None on the serial path): what
    #: ``config.parallel`` cannot say, written as a ``parallel_json`` block
    parallel: Optional[ParallelRunInfo] = None

    def observables(self) -> Dict[str, np.ndarray]:
        """The recorded series as plain arrays (keys: times, dipole, ...);
        ``{}`` for a checkpoint."""
        return self.record.as_arrays() if self.record is not None else {}

    def save_npz(self, path) -> Path:
        """Persist observables + final state + config to one ``.npz``.

        Dtypes are preserved exactly (complex observables stay
        complex128); :meth:`load_npz` round-trips the payload and can
        enforce that the file belongs to an expected config.
        """
        return write_result_npz(path, self)

    @staticmethod
    def load_npz(
        path, expected_config: Optional[SimulationConfig] = None
    ) -> Tuple[SimulationConfig, Dict[str, np.ndarray]]:
        """Read back ``(config, arrays)`` from :meth:`save_npz` output:
        :func:`read_result_npz`'s result (and refusals) as one dict of
        the final-state and observable arrays."""
        result = read_result_npz(path, expected_config)
        return result.config, {**_final_state_arrays(result.final_state), **result.observables()}

    def summary(self) -> str:
        """Human-readable observable table (what the CLI and examples print)."""
        r = self.record if self.record is not None else PropagationRecord()
        lines = [
            f"{'t (as)':>9} {'dipole_x':>12} {'E_tot (Ha)':>15} {'N_e':>10} {'outer/inner':>12}"
        ]
        for i, t in enumerate(r.times):
            stats = r.stats[i]
            energy = r.energy[i]
            e_str = f"{energy:15.8f}" if np.isfinite(energy) else f"{'-':>15}"
            # a result read back from a file does not know its solver counts
            counts = (
                f"{'n/a':>5}/{'n/a':<5}" if stats.scf_iterations is None
                else f"{stats.outer_iterations:>5}/{stats.scf_iterations:<5}"
            )
            lines.append(
                f"{t / AU_PER_ATTOSECOND:9.1f} {r.dipole[i][0]:12.6f} {e_str} "
                f"{r.particle_number[i]:10.6f} {counts}"
                + (" not converged" if stats.converged is False else "")
            )
        if self.parallel is not None:
            lines.extend(self.parallel.summary_lines(self.config.parallel))
        steps = r.stats[1:]  # row 0 is the initial state, not a step
        # unknown convergence (None) is neither failed nor converged
        failed = [s.residual for s in steps if s.converged is False]
        if failed:
            lines.append(
                f"{len(failed)} of {len(steps)} steps did not converge "
                f"(worst residual {max(failed):.2e})"
            )
        return "\n".join(lines)


class Simulation:
    """Config-driven driver owning the full component chain lazily.

    Parameters
    ----------
    config:
        A :class:`SimulationConfig` or a nested plain dict.
    ground_state:
        Optional pre-converged ground state (skips SCF) — used by
        :meth:`resume` and :meth:`derive` to share expensive work.
    state:
        Optional propagation state to continue from instead of the
        ground state (mid-trajectory restart).
    """

    def __init__(
        self,
        config: ConfigLike,
        ground_state: Optional[GroundState] = None,
        state: Optional[TDState] = None,
        parallel_ledger: Optional[CostLedger] = None,
    ) -> None:
        if not isinstance(config, SimulationConfig):
            config = SimulationConfig.from_dict(config)  # refuses what is not a mapping
        self.config = config
        self._cell = None
        self._backend: Optional[Backend] = None
        self._grid: Optional[PlaneWaveGrid] = None
        self._field = None
        self._ham: Optional[Hamiltonian] = None
        self._gs = ground_state
        self._state = state
        self._parallel: Optional[ParallelContext] = None
        #: checkpointed communication tally a resumed run continues from
        self._parallel_ledger_seed = parallel_ledger

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_config(cls, config: ConfigLike, **kwargs) -> "Simulation":
        return cls(config, **kwargs)

    @classmethod
    def from_file(cls, path) -> "Simulation":
        """Build from a ``.toml`` or ``.json`` config file."""
        return cls(SimulationConfig.from_file(path))

    @classmethod
    def resume(cls, path) -> "Simulation":
        """Continue the trajectory a result file ends in.

        Any file :func:`write_result_npz` wrote will do.  A step needs
        only the state, so no SCF runs either way; a checkpoint also
        restores the ground state, while after a ``save_npz`` / store /
        ``jobs fetch`` file :meth:`ground_state` would converge one if
        asked.  When the run was parallel, the file's communication
        ledger seeds the resumed context, so the accounting — like the
        trajectory — continues instead of restarting.
        """
        stored = read_result_npz(path)
        return cls(
            stored.config,
            ground_state=stored.ground_state,
            state=stored.final_state,
            parallel_ledger=stored.parallel.ledger if stored.parallel is not None else None,
        )

    def derive(self, **sections) -> "Simulation":
        """A new simulation with config sections changed, sharing caches.

        Cached components carry over when the sections defining them are
        untouched: the grid for an unchanged ``system``, the field for an
        unchanged ``field`` section, the ground state for unchanged
        ``system`` + ``scf``.  The Hamiltonian is always rebuilt (it
        carries mutable density/exchange/time state that must not leak
        between runs), and the propagation state is never shared — the
        derived run starts fresh from its ground state.  E.g. compare
        propagators on one SCF::

            rk4 = sim.derive(propagation={"propagator": "rk4", "dt_as": 1.0})
        """
        new = Simulation(self.config.replace(**sections))
        if new.config.field == self.config.field:
            new._field = self._field
        if new.config.system == self.config.system:
            new._cell = self._cell
            # the grid owns the numerics engine, so sharing it also
            # requires an identical [backend] section
            if new.config.backend == self.config.backend:
                new._backend = self._backend
                new._grid = self._grid
            if new.config.scf == self.config.scf:
                # the converged ground state is plain arrays — valid on
                # any [backend] section (its knobs move no bits)
                new._gs = self._gs
        return new

    # -- lazy components -----------------------------------------------------
    @property
    def cell(self):
        if self._cell is None:
            sys = self.config.system
            self._cell = build("cell", sys.cell, **sys.cell_params)
        return self._cell

    @property
    def backend(self) -> Backend:
        """The numerics engine built from the ``[backend]`` config section."""
        if self._backend is None:
            cfg = self.config.backend
            self._backend = Backend(fft_workers=cfg.fft_workers)
        return self._backend

    @property
    def grid(self) -> PlaneWaveGrid:
        if self._grid is None:
            sys = self.config.system
            self._grid = PlaneWaveGrid(self.cell, ecut=sys.ecut, backend=self.backend)
        return self._grid

    def fft_counters(self) -> FFTTally:
        """The FFT counts since this simulation's backend was built: every
        transform, simulated ranks' exchange work included.  The tally is
        the process's, so another simulation computing meanwhile in this
        process is counted too."""
        return FFTTally.of(self.backend.window())

    # -- parallel execution ---------------------------------------------------
    @property
    def parallel(self) -> Optional[ParallelContext]:
        """The simulated-MPI context (``None`` when ``[parallel]`` is
        inactive).  Builds the distributed exchange operator and reads
        each run's communication off the tally."""
        cfg = self.config.parallel
        if not cfg.active:
            return None
        if self._parallel is None:
            self._parallel = ParallelContext(
                nranks=cfg.ranks,
                pattern=cfg.pattern,
                machine=cfg.machine,
                use_shm=cfg.use_shm,
                history=self._parallel_ledger_seed,
            )
        return self._parallel

    @property
    def functional(self):
        sys = self.config.system
        return build("functional", sys.functional, **sys.functional_params)

    @property
    def field(self):
        if self._field is None:
            fld = self.config.field
            self._field = build("field", fld.kind, **fld.params)
        return self._field

    @property
    def hamiltonian(self) -> Hamiltonian:
        if self._ham is None:
            sys = self.config.system
            ctx = self.parallel
            self._ham = Hamiltonian(
                self.grid,
                self.functional,
                field=self.field,
                degeneracy=sys.degeneracy,
                fock_batch_size=sys.fock_batch_size,
                fock_factory=ctx.fock_operator if ctx is not None else None,
            )
        return self._ham

    # -- ground state --------------------------------------------------------
    def ground_state(self, store=None) -> GroundState:
        """Converge (once) and cache the SCF ground state.

        With a ``store`` (an open :class:`~repro.store.ResultStore`) the
        group's ground state is obtained exactly once across every
        process using that store: loaded from the blob cache when
        present, otherwise converged here under the group's lease and
        published (:func:`repro.store.lease.coalesced_ground_state`).
        """
        if self._gs is None:

            def converge() -> GroundState:
                return run_scf(self.hamiltonian, self.config.scf)

            if store is None:
                self._gs = converge()
            else:
                from repro.store.lease import coalesced_ground_state

                self._gs = coalesced_ground_state(store, self.config, converge)
        return self._gs

    @property
    def time(self) -> float:
        """Time (a.u.) of the current state; 0 before any, with no SCF."""
        return self._state.time if self._state is not None else 0.0

    @property
    def state(self) -> TDState:
        """Current propagation state (initialized from the ground state)."""
        if self._state is None:
            gs = self.ground_state()
            self._state = TDState(gs.orbitals.copy(), gs.sigma.copy(), 0.0)
        return self._state

    # -- propagation ---------------------------------------------------------
    def build_propagator(self):
        """The configured propagator over this simulation's Hamiltonian."""
        prop = self.config.propagation
        options = propagator_options(prop.propagator, prop.options)
        return build(
            "propagator",
            prop.propagator,
            self.hamiltonian,
            **({} if options is None else {"options": options}),
            track_sigma=[tuple(p) for p in prop.track_sigma],
            record_energy=prop.record_energy,
        )

    def propagate(
        self,
        n_steps: Optional[int] = None,
        dt_as: Optional[float] = None,
        observe_every: Optional[int] = None,
        progress=None,
    ) -> SimulationResult:
        """Run the configured propagation from the current state.

        Arguments override the corresponding ``propagation`` config keys
        for this call only, refused by those keys' declarations.  The
        simulation's state advances, so calling again continues the
        trajectory.  Nothing is stored: a stored run is its config's
        trajectory from t = 0, which only :meth:`run` files.

        ``progress`` is an optional ``callable(step, n_steps)`` invoked
        after every completed propagation step — the hook ``repro serve``
        workers use to publish live job progress.
        """
        prop = overridden(
            self.config.propagation, n_steps=n_steps, dt_as=dt_as, observe_every=observe_every
        )
        propagator = self.build_propagator()
        ctx = self.parallel
        # the propagator build above materialized the Hamiltonian, so the
        # exchange operator (when parallel) exists before the run opens
        run = window()
        final = propagator.propagate(
            self.state,
            dt=prop.dt_as * AU_PER_ATTOSECOND,
            n_steps=prop.n_steps,
            observe_every=prop.observe_every,
            on_step=progress,
        )
        self._state = final
        tally = run()
        return SimulationResult(
            config=self.config,
            record=propagator.record,
            final_state=final,
            ground_state=self._gs,
            fft=FFTTally.of(tally),
            parallel=ctx.run_info(tally) if ctx is not None else None,
        )

    def run(self, store=None, progress=None) -> SimulationResult:
        """Ground state + full configured propagation (the CLI entry).

        With a ``store`` this is :func:`repro.api.runs.run_one`: an
        identical completed run in the store is returned instead of
        recomputed, the SCF for this config's shared-SCF group comes
        from the store's blob cache when present (skipping
        :func:`run_scf` entirely), and the finished run is appended; a
        simulation past t = 0 is refused.  ``progress(step, n_steps)`` is
        called with step 0 when the propagation starts, then after every
        step.
        """
        from repro.api.runs import run_one

        return run_one(self, store, progress)[0]

    # -- checkpointing --------------------------------------------------------
    def save_checkpoint(self, path) -> Path:
        """Snapshot state + config + ground state as a result without a
        record, for :meth:`resume`.  Parallel runs persist their
        cumulative communication tally so a resumed trajectory keeps
        accounting where it left off."""
        ctx = self.parallel
        checkpoint = SimulationResult(
            self.config, None, self.state, self._gs,
            parallel=ctx.run_info() if ctx is not None else None,
        )
        return write_result_npz(path, checkpoint)
