"""Ensemble sweep engine: one declarative config family, many runs.

The paper's results are *families* of trajectories — field amplitudes
(Fig. 7), propagator variants (Fig. 9), rank/node counts (Figs. 10-11) —
so the facade gets a first-class multi-run layer:

    base, sweep = load_sweep_file("sweep_absorption.toml")
    result = run_ensemble(base, sweep, workers=2, store="study")
    omega, strengths = result.dipole_spectra(kick=2e-3)

:func:`expand_sweep` crosses the :class:`~repro.api.config.SweepConfig`
axes into pending :class:`RunRecord` grid points, each with its concrete
:class:`~repro.api.config.SimulationConfig`; :func:`run_ensemble`
executes them — this process, alone or beside
spawned workers, draining the store's job queue — through the one run
kernel of :mod:`repro.api.runs`, converging each distinct (system, scf)
ground state exactly once and each distinct config hash at most once;
and :class:`EnsembleResult` collects each point's stored run row
(status, error, timing, tallies) and observables, with spectrum
aggregation built in.  The store is the sweep's only
persistent result: calling :func:`run_ensemble` again on a finished store
restores every variant from it and runs nothing.

``repro sweep`` exposes the same engine on the command line.
"""

from __future__ import annotations

import contextlib
import itertools
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.api.config import ConfigError, SimulationConfig, SweepConfig, overridden, overrides_label
from repro.api import runs
from repro.backend.base import FFT, FFTTally
from repro.observables.spectrum import absorption_spectrum
from repro.parallel.ledger import CostLedger
from repro.store.common import config_hash
from repro.store.query import StoredRun
from repro.trace import Tally


class FFTCoverage(NamedTuple):
    """Merged ensemble FFT tally + how many runs actually reported one."""

    totals: Optional[FFTTally]
    n_reporting: int
    n_runs: int

    @property
    def complete(self) -> bool:
        return self.n_reporting == self.n_runs


# --------------------------------------------------------------------------
# sweep expansion
# --------------------------------------------------------------------------


def apply_overrides(
    config: SimulationConfig, overrides: Mapping[str, Any]
) -> SimulationConfig:
    """A new config with dotted-path ``overrides`` applied.

    Paths address any config leaf, including free-form parameter dicts:
    ``"propagation.propagator"``, ``"field.params.kick"``,
    ``"propagation.options.density_tol"`` ...  Unknown section keys are
    rejected by the strict section parsers with the dotted name.
    """
    data = config.to_dict()
    for path, value in overrides.items():
        parts = path.split(".")
        if len(parts) < 2 or not all(parts):
            raise ConfigError(
                f"sweep axis {path!r} must be a dotted config path like "
                f"'field.params.kick'"
            )
        node: Dict[str, Any] = data
        for key in parts[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(
                    f"sweep axis {path!r} descends into non-table config key {key!r}"
                )
        node[parts[-1]] = value
    return SimulationConfig.from_dict(data)


def expand_sweep(base: SimulationConfig, sweep: SweepConfig) -> List["RunRecord"]:
    """All grid points of ``sweep`` applied to ``base``, in axis order.

    ``mode = "grid"`` crosses the axes (last axis fastest, like nested
    loops in declaration order); ``mode = "zip"`` pairs them.  An empty
    axes table yields the single base config.  Each point is a pending
    :class:`RunRecord`.
    """
    paths = list(sweep.axes)
    if not paths:
        return [RunRecord(0, {}, base)]
    if sweep.mode == "zip":
        combos: Sequence[Tuple[Any, ...]] = list(zip(*(sweep.axes[p] for p in paths)))
    else:
        combos = list(itertools.product(*(sweep.axes[p] for p in paths)))
    records = []
    for i, values in enumerate(combos):
        overrides = dict(zip(paths, values))
        records.append(RunRecord(i, overrides, apply_overrides(base, overrides)))
    return records


# --------------------------------------------------------------------------
# per-run records and the ensemble result
# --------------------------------------------------------------------------


@dataclass
class RunRecord:
    """One grid point of a sweep: pending until it settles on its run row.

    Status, error, seconds and tallies are read from :attr:`run`, the
    store's row for the point's config; the observables are loaded
    when the point settles ``ok``, because the store a sweep without
    ``store=`` ran on is gone when it returns.
    """

    index: int
    overrides: Dict[str, Any]
    config: SimulationConfig
    #: the stored run this point settled on (``None`` while pending)
    run: Optional[StoredRun] = None
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.run is not None and self.run.ok

    @property
    def status(self) -> str:
        """``"pending"``, ``"ok"`` or ``"error"``."""
        if self.run is None:
            return "pending"
        return "ok" if self.run.ok else "error"

    @property
    def error(self) -> Optional[str]:
        """The first line of a failed run's error, else ``None``."""
        if self.run is None or self.run.ok:
            return None
        return (self.run.error or self.run.status).splitlines()[0]

    @property
    def elapsed(self) -> float:
        """The kernel's wall seconds for the run (0 unless ``ok``)."""
        return self.run.elapsed if self.ok else 0.0

    @property
    def fft(self) -> Optional[FFTTally]:
        """The run's own *propagation* FFT tally — the shared group SCF
        runs before any per-run snapshot and is attributed to no run.
        ``None`` unless ``ok``, or when the row holds no tally."""
        return FFTTally(**self.run.fft) if self.ok and self.run.fft else None

    @property
    def parallel(self) -> Optional[Dict[str, Any]]:
        """``ParallelRunInfo.to_dict()`` of a run under an active
        ``[parallel]`` section, else ``None``."""
        return self.run.parallel if self.ok else None

    def label(self) -> str:
        return overrides_label(self.overrides)

    @property
    def ledger(self) -> Optional[CostLedger]:
        """The decoded communication ledger of a parallel run, else None."""
        if self.parallel is None:
            return None
        return CostLedger.from_dict(dict(self.parallel.get("ledger", {})))


class EnsembleResult:
    """Everything one sweep produced: per-run records + aggregation.

    Successful runs carry their observable arrays (``times``, ``dipole``,
    ``energy``, ...); failed runs carry the formatted exception instead,
    so one diverging variant never loses the rest of the grid.
    """

    def __init__(
        self,
        base_config: SimulationConfig,
        sweep: SweepConfig,
        runs: List[RunRecord],
    ) -> None:
        self.base_config = base_config
        self.sweep = sweep
        self.runs = runs

    # -- bookkeeping --------------------------------------------------------
    @property
    def ok(self) -> List[RunRecord]:
        """The successful runs, in grid order."""
        return [r for r in self.runs if r.ok]

    @property
    def failures(self) -> List[RunRecord]:
        """The failed runs (status ``"error"``), in grid order."""
        return [r for r in self.runs if not r.ok]

    def raise_on_failure(self) -> None:
        """Raise a summary ``RuntimeError`` if any run failed."""
        bad = self.failures
        if bad:
            detail = "; ".join(f"run {r.index} [{r.label()}]: {r.error}" for r in bad)
            raise RuntimeError(f"{len(bad)}/{len(self.runs)} ensemble runs failed: {detail}")

    def fft_totals(self) -> "FFTCoverage":
        """Coverage-aware merged FFT tally over the whole ensemble.

        Returns ``FFTCoverage(totals, n_reporting, n_runs)``: ``totals``
        merges the runs that reported a tally (``None`` when none did),
        and ``n_reporting`` / ``n_runs`` make
        partial coverage explicit instead of letting a partial sum
        masquerade as the ensemble total.  :meth:`summary` flags
        ``n_reporting < n_runs`` in its tally line.
        """
        reporting = [r.fft for r in self.runs if r.fft is not None]
        total = Tally()
        for fft in reporting:
            total.merge(Tally.from_dict(FFT, fft._asdict()))
        return FFTCoverage(FFTTally.of(total) if reporting else None, len(reporting), len(self.runs))

    def parallel_ledgers(self) -> Dict[str, "CostLedger"]:
        """Per-run communication ledgers keyed by run label.

        Only runs executed under an active ``[parallel]`` section appear;
        a ``parallel.pattern``/``parallel.ranks`` sweep therefore yields
        one measured ledger per grid point — the Fig. 5 / Table I
        trade-off from a single command.
        """
        return {
            f"run{r.index} {r.label()}": r.ledger for r in self.runs if r.parallel is not None
        }

    # -- aggregation --------------------------------------------------------
    def stacked(self, key: str) -> np.ndarray:
        """Observable ``key`` of every successful run stacked on axis 0.

        Requires at least one successful run and identical per-run shapes
        (i.e. a sweep that does not change trajectory length).
        """
        good = self.ok
        if not good:
            raise ValueError(f"no successful runs to stack {key!r} from")
        missing = [r.index for r in good if key not in r.arrays]
        if missing:
            raise KeyError(
                f"observable {key!r} missing from run(s) {missing}; "
                f"available: {', '.join(sorted(good[0].arrays))}"
            )
        shapes = {r.arrays[key].shape for r in good}
        if len(shapes) > 1:
            raise ValueError(
                f"cannot stack {key!r}: runs disagree on shape ({sorted(shapes)}); "
                f"use per-run access instead"
            )
        return np.stack([r.arrays[key] for r in good])

    def dipole_spectra(
        self,
        kick: Optional[float] = None,
        component: int = 0,
        damping: float = 0.003,
        pad_factor: int = 8,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dipole strength function of every successful run.

        Returns ``(omega, strengths)`` with ``strengths`` of shape
        ``(n_ok, n_freq)``, via :func:`repro.observables.spectrum.
        absorption_spectrum`.  ``kick`` defaults to each run's own
        ``field.params["kick"]`` (the delta-kick setup of the absorption
        studies); pass it explicitly for other field kinds.
        """
        good = self.ok
        if not good:
            raise ValueError("no successful runs to compute spectra from")
        omega_ref: Optional[np.ndarray] = None
        strengths = []
        for run in good:
            k = kick
            if k is None:
                k = run.config.field.params.get("kick")
                if k is None:
                    raise ValueError(
                        f"run {run.index} has field kind "
                        f"{run.config.field.kind!r} without a 'kick' param; "
                        f"pass kick= explicitly"
                    )
            if float(k) == 0.0:
                raise ValueError(
                    f"run {run.index} [{run.label()}] has kick == 0 (a field-free "
                    f"reference run); normalized spectra are undefined for it — "
                    f"exclude such runs (compute per-run spectra from stacked "
                    f"dipoles, as examples/field_amplitude_sweep.py does) or "
                    f"pass a nonzero kick= explicitly"
                )
            omega, s = absorption_spectrum(
                run.arrays["times"],
                run.arrays["dipole"][:, component],
                kick=float(k),
                damping=damping,
                pad_factor=pad_factor,
            )
            if omega_ref is None:
                omega_ref = omega
            elif omega.shape != omega_ref.shape or not np.allclose(omega, omega_ref):
                raise ValueError(
                    "runs disagree on the frequency grid (different trajectory "
                    "lengths/steps); compute spectra per run instead"
                )
            strengths.append(s)
        assert omega_ref is not None
        return omega_ref, np.stack(strengths)

    # -- reporting ----------------------------------------------------------
    def summary(self) -> str:
        """Per-run status table + one-line tally (the CLI output)."""
        with_comm = any(r.parallel is not None for r in self.runs)
        header = f"{'run':>4}  {'status':<6} {'t (s)':>7} {'ffts':>9}"
        if with_comm:
            header += f" {'comm (s)':>10}"
        lines = [header + "  overrides"]
        for r in self.runs:
            note = f"  !! {r.error.splitlines()[-1]}" if r.error else ""
            ffts = f"{r.fft.transforms}" if r.fft is not None else "-"
            row = f"{r.index:>4}  {r.status:<6} {r.elapsed:7.2f} {ffts:>9}"
            if with_comm:
                ledger = r.ledger
                row += f" {'-':>10}" if ledger is None else f" {ledger.total_seconds():>10.3e}"
            lines.append(f"{row}  {r.label()}{note}")
        n_ok = len(self.ok)
        tally = f"{n_ok}/{len(self.runs)} runs ok"
        coverage = self.fft_totals()
        if coverage.totals is not None:
            tally += (
                f" | FFTs: {coverage.totals.transforms} transforms in "
                f"{coverage.totals.calls} calls"
            )
            if not coverage.complete:
                tally += (
                    f" (partial: {coverage.n_reporting}/{coverage.n_runs} runs reporting)"
                )
        lines.append(tally)
        if with_comm:
            lines.append("per-run communication (modeled s by MPI category):")
            for label, ledger in self.parallel_ledgers().items():
                lines.append(f"  {label}: {ledger.describe()}")
        return "\n".join(lines)


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------


def _announce_groups(plan: runs.RunPlan, say):
    """Yield the first config of each pending group, announced."""
    for number, (config, stored) in enumerate(plan.groups.values(), 1):
        if stored:
            say(f"ground state {number} restored from store")
        else:
            say(
                f"converging ground state {number} ({config.system.cell}, "
                f"{config.system.functional}, ecut {config.system.ecut:g})"
            )
        yield config


def run_ensemble(
    base: SimulationConfig,
    sweep: SweepConfig,
    workers: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    store=None,
) -> EnsembleResult:
    """Expand ``sweep`` over ``base`` and execute every grid point.

    The pending variants go through the store's job queue, drained by
    ``workers`` processes (default ``sweep.workers``, at most one per
    pending variant): **this process and N - 1 spawned** workers, each
    running the kernel against the store.  ``workers=1`` is this process
    alone and spawns nothing; for more, a script calling this needs an
    ``if __name__ == "__main__":`` guard.  A variant that raises, or
    hard-crashes a spawned worker, is an ``error`` record; one that
    hard-crashes this process ends the sweep, and the store requeues it
    on the next call.  ``progress`` receives one line per event (the CLI
    passes ``print``).

    ``store`` (a :class:`~repro.store.ResultStore` or study directory;
    default ``sweep.store``) is where the sweep's result persists: runs
    append to it as they finish, a variant whose config hash maps to a
    completed stored run is restored instead of recomputed (its SCF too,
    from the group's blob), and interrupted or failed runs are re-queued.
    So calling this again on a finished store is how a sweep is read
    back: every variant restores and nothing runs.  Workers share the
    store's job queue, blobs and cache hits with any job service on it;
    without a store they share a temporary one, removed on return.

    Each distinct config hash runs once (duplicate grid points are filled
    from that one run) and each (system, scf, backend-engine) group
    converges once.  Per-run failures, a group's SCF failing included,
    are captured in the :class:`EnsembleResult`, never aborting the sweep.
    """
    from repro.serve.pool import drain
    from repro.store import ResultStore

    n_workers = overridden(sweep, workers=workers).workers  # refused as sweep.workers
    say = progress if progress is not None else (lambda line: None)
    records = expand_sweep(base, sweep)
    by_hash: Dict[str, List[RunRecord]] = {}
    for record in records:
        by_hash.setdefault(config_hash(record.config), []).append(record)

    def settle(run, restored=False):
        if restored:
            how = f"restored from store ({run.run_id})"
        else:
            how = f"ok ({run.elapsed:.2f} s)" if run.ok else "error (0.00 s)"
        arrays = store_obj.load_result(run.run_id).observables() if run.ok else {}
        for record in by_hash[run.config_hash]:
            record.run, record.arrays = run, dict(arrays)
            say(f"run {record.index} [{record.label()}]: {how}")

    store_like = store if store is not None else sweep.store
    with contextlib.ExitStack() as stack:
        if store_like is None:
            store_like = stack.enter_context(tempfile.TemporaryDirectory(prefix="repro-sweep-"))
        store_obj = ResultStore.ensure(store_like)
        if store_obj is not store_like:
            stack.callback(store_obj.close)  # opened here, closed here
        plan = runs.plan_runs((r.config for r in records), store_obj)
        for done in plan.restored.values():
            settle(done, restored=True)
        if plan.pending:
            # each group's first variant ahead of the rest, so the group SCFs
            # converge side by side instead of one process blocked on a lease
            firsts = {config_hash(config) for config in _announce_groups(plan, say)}
            order = sorted(plan.pending, key=lambda chash: chash not in firsts)
            drain(
                store_obj, [plan.pending[h] for h in order], min(n_workers, len(order)),
                settle, labels=[by_hash[h][0].overrides for h in order],
            )
    return EnsembleResult(base_config=base, sweep=sweep, runs=records)
