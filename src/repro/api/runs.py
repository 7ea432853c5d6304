"""The one engine under every "run this config" entry point.

:func:`run_one` is the run kernel: cache hit → group ground state (in
memory / the store's blob / one lease-elected SCF) → propagate →
persist, never redoing a finished config hash, timing itself once.
:func:`plan_runs` is the same decision taken for a batch up front:
which hashes the store already holds, which are left, and which
shared-SCF groups those need.  ``Simulation.run(store=)`` and ``repro
run --store`` call the kernel directly; a sweep
(:func:`~repro.api.ensemble.run_ensemble`) plans its batch and hands
the pending hashes to the store's job queue, whose workers — the
calling process among them — call the kernel per job.  So resume,
coalescing, persistence and failure handling exist once.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from repro.api.config import ConfigError, SimulationConfig
from repro.api.registry import propagator_options
from repro.api.simulation import Simulation, SimulationResult
from repro.scf.groundstate import default_nbands
from repro.store.common import config_hash, group_address, group_key


class RunOutcome(NamedTuple):
    """What :func:`run_one` hands back."""

    #: the stored run's id (``None`` without a store)
    run_id: Optional[str]
    result: SimulationResult
    #: kernel wall seconds, ground state included; a reused run reports
    #: the seconds it took when it was computed
    elapsed: float
    #: the store already held this exact config: nothing was computed
    reused: bool


def run_one(
    sim: Simulation,
    store=None,
    progress: Optional[Callable[[int, int], None]] = None,
    *,
    reuse: bool = True,
    **window,
) -> RunOutcome:
    """Run ``sim``'s config to a stored result, doing only what is missing.

    ``sim`` carries the config plus whatever is already in memory (a
    ground state, a grid shared with its siblings).  ``progress(step,
    n_steps)`` is called with step 0 once the ground state is in hand
    and then after every completed step.  ``reuse=False`` recomputes
    even when the store holds the config's completed run; ``window``
    forwards ``n_steps`` / ``dt_as`` / ``observe_every`` to
    :meth:`Simulation.propagate`.
    """
    started = time.perf_counter()
    prop = sim.config.propagation
    # options that cannot run are refused before an SCF is spent on them
    propagator_options(prop.propagator, dict(prop.options))
    _check_tracked_bands(sim)
    if store is not None:
        from repro.store import ResultStore

        store = ResultStore.ensure(store)
        done = store.find_completed(sim.config) if reuse else None
        if done is not None:
            result = store.load_result(done.run_id, with_ground_state=True)
            return RunOutcome(done.run_id, result, done.elapsed, True)
    sim.ground_state(store)
    if progress is not None:
        n_steps = window.get("n_steps")
        progress(0, sim.config.propagation.n_steps if n_steps is None else int(n_steps))
    result = sim.propagate(progress=progress, **window)
    elapsed = time.perf_counter() - started
    run_id = None if store is None else store.add_result(result, elapsed=elapsed)
    return RunOutcome(run_id, result, elapsed, False)


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
