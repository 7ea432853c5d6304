""":class:`ResultStore` — one directory per study, one result file per run.

On-disk layout::

    study/
      store.json            # store metadata: version, index backend
      index.sqlite          # one row per run: the job queue (schema 5)
      blobs/
        ground_states/<sha>.npz    # one SCF per (system, scf, engine) group
      runs/
        <run_id>.npz        # the run's result file
      workers/<id>.lock     # held by each live worker (repro.serve.queue)

``runs/<run_id>.npz`` *is* the file
:meth:`SimulationResult.save_npz <repro.api.simulation.SimulationResult.save_npz>`
writes: :meth:`ResultStore.add_run` takes a
:class:`~repro.api.simulation.SimulationResult` and hands it to the one
writer, :func:`~repro.api.simulation.write_result_npz`, so
:meth:`ResultStore.fetch` is a file copy and ``SimulationResult.load_npz``
reads a stored run in place.  The row's result columns (sample count,
``parallel`` block, ground-state address) are computed from that same
result, in one place.  The file is written once, when the run
finishes, by temp file + rename, and then the run's row turns ``ok``:
re-running a config replaces the old file whole, and a writer killed
part-way leaves the previous run readable.  It is read back by the one
reader, :func:`~repro.api.simulation.read_result_npz`, and only
through :meth:`ResultStore.load_result`, which serves a run whose row
is ``ok`` and nothing else; :meth:`ResultStore.find_completed` reads a
file whose row its writer did not live to finish.

A run's row is its job row (:class:`~repro.serve.queue.JobQueue` owns
the table; :class:`~repro.store.query.StoredRun` reads it): the store
reads rows and finishes them only through its queue, so a run stored by
a service worker, a sweep or ``Simulation.run(store=)`` has one id, one
row and an attempt history alike.

The store is the durable layer between the engines and the filesystem:
:func:`~repro.api.runs.run_one` — behind ``Simulation.run(store=...)``,
``repro run --store`` and every sweep or service job — is the one way a
run enters it, ``repro sweep --store`` resumes from it, and ``repro jobs
DIR`` reads it as ``repro jobs URL`` reads a server's.
"""

from __future__ import annotations

import json
import shutil
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.api.config import SimulationConfig
from repro.constants import AU_PER_ATTOSECOND
from repro.serve.queue import JobQueue
from repro.store.blobs import BlobStore
from repro.store.common import StoreError, group_address, run_id_for, utc_now
from repro.store.query import StoredRun
from repro.store.schema import INDEX_BACKEND, STORE_VERSION, inspect_store
from repro.trace import traced
from repro.utils.io import atomic_write_text

if TYPE_CHECKING:
    # the physics types, for annotations only: a process that serves or
    # queries the store never imports them; the methods that build or
    # write arrays import what they use
    from repro.api.simulation import SimulationResult
    from repro.scf.groundstate import GroundState

StoreLike = Union["ResultStore", str, Path]


def require_run_from_t0(run_id: str, result: SimulationResult) -> None:
    """Refuse, naming ``run_id``, a result that is not its config's whole
    trajectory from t = 0: one with no record (a checkpoint), whose first
    sample is later (a continuation), or whose samples are not its
    config's (a ``propagate`` that overrode ``n_steps``, ``dt_as`` or
    ``observe_every``).  The one rule of what a stored run is, for
    :meth:`ResultStore.add_run` and :meth:`ResultStore.find_completed`."""
    times = result.record.times if result.record is not None else []
    if not times or times[0] != 0.0:
        first = f"starts at t = {times[0]!r} a.u." if times else "has no samples"
        raise StoreError(
            f"run {run_id}: the result {first}; a stored run is its "
            "config's trajectory from t = 0"
        )
    prop = result.config.propagation
    n, every = prop.n_steps, prop.observe_every
    # propagate records t = 0, every `every`-th step and the last one
    samples = 1 + n // every + (n % every != 0)
    end = n * (prop.dt_as * AU_PER_ATTOSECOND)
    # t is n additions of dt, each rounding a partial sum <= end by half an
    # ulp, plus dt's and end's own roundings: (n + 3) / 2 ulps, doubled
    if len(times) != samples or abs(times[-1] - end) > (n + 3) * sys.float_info.epsilon * end:
        raise StoreError(
            f"run {run_id}: the result has {len(times)} samples to t = {times[-1]!r} a.u., "
            f"its config (n_steps = {n}, dt_as = {prop.dt_as!r}, observe_every = {every}) "
            f"records {samples} to t = {end!r}; a stored run is its config's whole trajectory"
        )


class ResultStore:
    """Resumable, content-addressed result store for one study.

    Parameters
    ----------
    root:
        The study directory.  Created (with metadata) when missing and
        ``create=True``.
    """

    def __init__(self, root, create: bool = True) -> None:
        self.root = Path(root)
        check = inspect_store(self.root)
        if check.problems:
            raise StoreError(check.problems[0])
        if check.meta is None:
            if not create:
                raise StoreError(f"no result store at {self.root}")
            self.root.mkdir(parents=True, exist_ok=True)
            meta = {"store_version": STORE_VERSION, "backend": INDEX_BACKEND, "created": utc_now()}
            atomic_write_text(self.root / "store.json", json.dumps(meta, sort_keys=True, indent=2) + "\n")
        self.blobs = BlobStore(self.root / "blobs")
        self.runs_dir = self.root / "runs"
        #: the owner of the run rows; the store reads and finishes them through it
        self.queue = JobQueue(self.root)

    # -- lifecycle -----------------------------------------------------------
    @classmethod
    def ensure(cls, store: StoreLike, **kwargs) -> "ResultStore":
        """Pass through a :class:`ResultStore`, or open/create one at a path."""
        if isinstance(store, ResultStore):
            return store
        return cls(store, **kwargs)

    def close(self) -> None:
        self.queue.close()

    def __len__(self) -> int:
        return sum(self.queue.counts().values())

    def _run_path(self, run_id: str) -> Path:
        return self.runs_dir / f"{run_id}.npz"

    def _result_columns(self, result: SimulationResult) -> Dict[str, Any]:
        """The row's columns that a stored result determines, for
        :meth:`JobQueue.finish_ok`: its group's ground-state blob (when
        stored), its sample count and its ``parallel`` block."""
        address = group_address(result.config)
        record = result.record
        return {
            "gs_address": address if self.blobs.ground_state_path(address).exists() else None,
            "n_times": len(record.times) if record is not None else 0,
            "parallel": result.parallel.to_dict() if result.parallel is not None else None,
        }

    # -- writing ---------------------------------------------------------------
    @traced("store.add_result")
    def add_run(self, result: SimulationResult, *, elapsed: float = 0.0) -> str:
        """Store one finished run, the one entry every writer shares.

        A stored run is its config's whole trajectory from t = 0: anything
        else (a checkpoint, a continuation, a ``propagate`` that overrode
        a propagation key) is refused (:func:`require_run_from_t0`) before
        anything is written.  The ground state goes to the
        content-addressed blobs (deduplicated), the result becomes the
        run's result file, and then the run's row turns ``ok``
        (:meth:`JobQueue.finish_ok`) with the result's FFT tally and
        ``elapsed``.  Re-adding a config replaces its file atomically
        (latest wins); until the new file is complete the row keeps
        serving the old one.
        """
        from repro.api.simulation import write_result_npz

        config = result.config
        run_id = run_id_for(config)
        require_run_from_t0(run_id, result)
        if result.ground_state is not None:
            self.blobs.put_ground_state(config, result.ground_state)
        write_result_npz(self._run_path(run_id), result)
        self.queue.finish_ok(
            config,
            elapsed=float(elapsed),
            fft=result.fft._asdict() if result.fft is not None else None,
            **self._result_columns(result),
        )
        return run_id

    # -- ground-state cache ---------------------------------------------------
    @traced("store.put_ground_state")
    def put_ground_state(self, config: SimulationConfig, gs: GroundState) -> str:
        """Store (dedup) the config's group SCF; returns the group address."""
        return self.blobs.put_ground_state(config, gs)

    def load_ground_state(self, config: SimulationConfig) -> Optional[GroundState]:
        """The stored SCF for this config's group, or ``None``."""
        return self.blobs.ground_state_for(config)

    # -- lookup / materialization ---------------------------------------------
    def get(self, run_id: str) -> StoredRun:
        run = self.queue.get(run_id)
        if run is None:
            raise StoreError(
                f"store {self.root} has no run {run_id!r}; "
                f"list ids with: repro jobs ls {self.root}"
            )
        return run

    @traced("store.find_completed")
    def find_completed(self, config: SimulationConfig) -> Optional[StoredRun]:
        """The completed stored run for exactly this config (else ``None``).

        The config-hash match is what sweep resume uses: a variant whose
        row is ``ok`` is restored instead of recomputed.  So is one whose
        result file a process wrote and then died before finishing the
        row: the row is finished here from the file (its elapsed seconds
        and FFT tally died with the writer) — unless it was cancelled,
        which :meth:`JobQueue.finish_ok` keeps.  A file that is not the
        config's whole run from t = 0 (:func:`require_run_from_t0`) is not
        served: a ``RuntimeWarning`` names the run id, the row stays as it
        is and the file is kept, for the config's next stored run to
        replace whole (deleting it here could race a live writer's rename).
        """
        run = self.queue.get(run_id_for(config))
        if run is None or run.ok:
            return run
        path = self._run_path(run.run_id)
        if not path.exists():
            return None
        from repro.api.simulation import read_result_npz

        stored = read_result_npz(path, expected_config=config)
        try:
            require_run_from_t0(run.run_id, stored)
        except StoreError as refused:
            warnings.warn(f"{refused}; its file {path} is not served", RuntimeWarning)
            return None
        done = self.queue.finish_ok(config, **self._result_columns(stored))
        return done if done.ok else None

    def result_path(self, run_id: str) -> Path:
        """The result file of a completed run (``runs/<run_id>.npz``)."""
        return self._run_path(self._completed(run_id).run_id)

    def _completed(self, run_id: str) -> StoredRun:
        run = self.get(run_id)
        if run.status != "ok":
            raise StoreError(
                f"run {run_id!r} has status {run.status!r} "
                f"({run.error or 'no trajectory stored'}); only completed runs "
                f"have a result"
            )
        return run

    @traced("store.load_result")
    def load_result(
        self, run_id: str, with_ground_state: bool = False
    ) -> SimulationResult:
        """A completed run's :class:`SimulationResult`: its result file
        through the one reader, plus the FFT tally its row kept.

        ``save_npz`` on it reproduces the stored file's content
        (round-trip tested); its observables are ``.observables()``.
        ``with_ground_state=True`` also loads the group's SCF blob (off
        by default — it is the large block).  A run that is not ``ok``
        raises :class:`StoreError` naming its status.
        """
        from repro.api.simulation import read_result_npz
        from repro.backend import FFTTally

        run = self._completed(run_id)
        result = read_result_npz(self._run_path(run.run_id), expected_config=run.config)
        result.fft = FFTTally(**run.fft) if run.fft else None
        if with_ground_state and run.gs_address:
            result.ground_state = self.blobs.get_ground_state(run.gs_address)
        return result

    def history(self, run_id: str) -> Tuple[StoredRun, List[Dict[str, Any]]]:
        """One run's row and its attempts, oldest first."""
        return self.get(run_id), self.queue.attempts(run_id)

    def fetch(self, run_id: str, path) -> Path:
        """Copy a completed run's result file to ``path``."""
        return Path(shutil.copyfile(self.result_path(run_id), path))

    # -- queries ---------------------------------------------------------------
    def query(self, **filters) -> List[StoredRun]:
        """Runs by status, dotted config keys and creation window, paged in
        creation order (:meth:`JobQueue.jobs <repro.serve.queue.JobQueue.jobs>`)."""
        return self.queue.jobs(**filters)
