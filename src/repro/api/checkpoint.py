"""Checkpoint IO: one ``.npz`` restarts a propagation mid-trajectory.

A checkpoint stores the propagated state (orbitals, occupation matrix,
time), the full :class:`~repro.api.config.SimulationConfig` as embedded
JSON provenance, and — when available — the converged ground state, so a
resumed :class:`~repro.api.simulation.Simulation` never re-runs SCF.

Arrays round-trip at full float64/complex128 precision: resuming and
taking one step produces bitwise-identical observables to the
uninterrupted run (tested in ``tests/test_api_simulation.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from repro.api.config import ConfigError, SimulationConfig, check_config_matches
from repro.parallel.ledger import CostLedger
from repro.rt.propagator import TDState
from repro.scf.groundstate import GroundState
from repro.utils.io import atomic_savez

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class Checkpoint:
    """A loaded checkpoint: config + state (+ optional ground state,
    + the cumulative communication ledger of a parallel run)."""

    config: SimulationConfig
    state: TDState
    ground_state: Optional[GroundState] = None
    parallel_ledger: Optional[CostLedger] = None


def save_checkpoint(
    path,
    config: SimulationConfig,
    state: TDState,
    ground_state: Optional[GroundState] = None,
    parallel_ledger: Optional[CostLedger] = None,
) -> Path:
    """Write a single-``.npz`` checkpoint; returns the resolved path."""
    path = Path(path)
    payload = {
        "version": np.int64(CHECKPOINT_VERSION),
        "config_json": np.str_(config.to_json()),
        "phi": np.asarray(state.phi, dtype=complex),
        "sigma": np.asarray(state.sigma, dtype=complex),
        "time": np.float64(state.time),
    }
    if ground_state is not None:
        payload.update(ground_state.to_arrays(prefix="gs_"))
    if parallel_ledger is not None:
        payload["parallel_ledger_json"] = np.str_(
            json.dumps(parallel_ledger.to_dict(), sort_keys=True)
        )
    return atomic_savez(path, **payload)


def load_checkpoint(
    path, expected_config: Optional[SimulationConfig] = None
) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`.

    ``expected_config`` (when given) must equal the config embedded in
    the file; a mismatch raises :class:`ConfigError` naming the
    differing keys — resuming a trajectory under a silently different
    setup is never what anyone wants.
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as data:
        if "final_phi" in data:
            raise ConfigError(
                f"{path} is a repro result file, not a checkpoint; "
                f"read it with SimulationResult.load_npz"
            )
        for key in ("version", "config_json", "phi", "sigma", "time"):
            if key not in data:
                raise ConfigError(f"{path} is not a repro checkpoint (missing {key!r})")
        version = int(data["version"])
        if version > CHECKPOINT_VERSION:
            raise ConfigError(
                f"checkpoint {path} has version {version}; this build reads <= {CHECKPOINT_VERSION}"
            )
        config = SimulationConfig.from_json(str(data["config_json"]))
        check_config_matches(config, expected_config, path, "checkpoint")
        state = TDState(
            phi=np.array(data["phi"], dtype=complex),
            sigma=np.array(data["sigma"], dtype=complex),
            time=float(data["time"]),
        )
        ground_state = None
        if "gs_orbitals" in data:
            ground_state = GroundState.from_arrays(data, f"checkpoint {path}", prefix="gs_")
        parallel_ledger = None
        if "parallel_ledger_json" in data:
            parallel_ledger = CostLedger.from_dict(
                json.loads(str(data["parallel_ledger_json"]))
            )
    return Checkpoint(
        config=config,
        state=state,
        ground_state=ground_state,
        parallel_ledger=parallel_ledger,
    )
