"""The one engine under every "run this config" entry point.

:func:`run_one` is the run kernel: cache hit → group ground state (in
memory / the store's blob / one lease-elected SCF) → propagate →
persist, never redoing a finished config hash; its body is the root
span ``api.run`` of :mod:`repro.trace`.
:func:`plan_runs` is the same decision taken for a batch up front:
which hashes the store already holds, which are left, and which
shared-SCF groups those need.  ``Simulation.run(store=)`` and ``repro
run --store`` call the kernel directly, their run recorded as a job of
the store's queue; a sweep
(:func:`~repro.api.ensemble.run_ensemble`) plans its batch and hands
the pending hashes to the store's job queue, whose workers — the
calling process among them — call the kernel per job.  So resume,
coalescing, persistence and failure handling exist once.
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from repro.api.config import ConfigError, SimulationConfig
from repro.api.components import propagator_options
from repro.api.simulation import Simulation, SimulationResult
from repro.scf.groundstate import default_nbands
from repro.store.common import config_hash, group_address, group_key
from repro.trace import span


def run_one(
    sim: Simulation,
    store=None,
    progress: Optional[Callable[[int, int], None]] = None,
    *,
    reuse: bool = True,
    claimed: bool = False,
) -> Tuple[SimulationResult, bool]:
    """Run ``sim``'s config to a stored result, doing only what is missing:
    ``(result, reused)``, ``reused`` when the store held the config's
    completed run and nothing was computed.

    ``sim`` carries the config plus whatever is already in memory (a
    ground state, a grid shared with its siblings).  ``progress(step,
    n_steps)`` is called with step 0 once the ground state is in hand
    and then after every completed step.  ``reuse=False`` recomputes
    even when the store holds the config's completed run.

    A stored run is its config's trajectory from t = 0, so with a store
    a ``sim`` whose state is already past t = 0 (advanced by
    :meth:`Simulation.propagate`, or built by :meth:`Simulation.resume`)
    is refused before any SCF and before the store is opened.

    A stored run is a job: its row is finished by the store's
    :meth:`~repro.store.store.ResultStore.add_run`, with the seconds of
    the ``api.run`` span so far; its id is its config's
    :func:`~repro.store.common.run_id_for`.  A queue worker has already
    claimed that row (``claimed=True``) and reports a failure itself;
    any other caller's run records its own row and attempt
    (:meth:`~repro.serve.queue.JobQueue.recording`), and an exception
    fails that attempt before it propagates.  A re-run of an ``ok`` row
    leaves it ``ok`` until the new result lands.
    """
    with span("api.run") as clock:
        prop = sim.config.propagation
        # options that cannot run are refused before an SCF is spent on them
        propagator_options(prop.propagator, prop.options)
        _check_tracked_bands(sim)
        if store is not None:
            if sim.time != 0.0:
                raise ConfigError(
                    f"this simulation's state is at t = {sim.time!r} a.u.: a stored run "
                    "is its config's trajectory from t = 0"
                )
            from repro.store import ResultStore

            store = ResultStore.ensure(store)
            done = store.find_completed(sim.config) if reuse else None
            if done is not None:
                return store.load_result(done.run_id, with_ground_state=True), True
        recording = store is not None and not claimed
        with store.queue.recording(sim.config) if recording else contextlib.nullcontext():
            sim.ground_state(store)
            if progress is not None:
                progress(0, prop.n_steps)
            result = sim.propagate(progress=progress)
            if store is not None:
                store.add_run(result, elapsed=clock())
        return result, False


def _check_tracked_bands(sim: Simulation) -> None:
    """Refuse a ``track_sigma`` index past the bands the SCF will return."""
    top = max((max(pair) for pair in sim.config.propagation.track_sigma), default=None)
    if top is None:
        return
    nbands = sim.config.scf.nbands or default_nbands(sim.hamiltonian.n_electrons, sim.cell.natom)
    if top >= nbands:
        raise ConfigError(f"propagation.track_sigma index {top} is out of range for {nbands} bands")


class RunPlan(NamedTuple):
    """What a batch of configs still needs, keyed by config hash."""

    #: hashes the store already completed -> their stored run
    restored: Dict[str, Any]
    #: hashes left to run -> config, in first-seen order
    pending: Dict[str, SimulationConfig]
    #: shared-SCF groups of the pending configs: group key -> (first
    #: config of the group, whether the store holds its ground state)
    groups: Dict[str, Tuple[SimulationConfig, bool]]


def plan_runs(configs: Iterable[SimulationConfig], store) -> RunPlan:
    """Split ``configs`` into restored / pending / groups, one entry per hash."""
    plan = RunPlan({}, {}, {})
    for config in configs:
        chash = config_hash(config)
        if chash in plan.restored or chash in plan.pending:
            continue
        done = store.find_completed(config)
        if done is not None:
            plan.restored[chash] = done
            continue
        plan.pending[chash] = config
        key = group_key(config)
        if key not in plan.groups:
            blob = store.blobs.ground_state_path(group_address(config))
            plan.groups[key] = (config, blob.exists())
    return plan
