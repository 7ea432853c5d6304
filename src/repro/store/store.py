""":class:`ResultStore` — one directory per study, one result file per run.

On-disk layout::

    study/
      store.json            # store metadata: version, index backend
      index.sqlite          # queryable run index (and the job queue)
      blobs/
        ground_states/<sha>.npz    # one SCF per (system, scf, engine) group
      runs/
        <run_id>.npz        # the run's result file

``runs/<run_id>.npz`` *is* the file
:meth:`SimulationResult.save_npz <repro.api.simulation.SimulationResult.save_npz>`
writes (one writer, :func:`~repro.api.simulation.write_result_npz`), so
:meth:`ResultStore.export` is a file copy and ``SimulationResult.load_npz``
reads a stored run in place.  It is written once, when the run
finishes, by temp file + rename: re-running a config replaces the old
file whole, and a writer killed part-way leaves the previous run
readable.

The store is the durable layer between the engines and the filesystem:
:meth:`Simulation.propagate(store=...) <repro.api.simulation.Simulation.propagate>`
and :func:`run_ensemble(store=...) <repro.api.ensemble.run_ensemble>`
add finished runs to it, ``repro sweep --store`` resumes from it, and
``repro results`` queries it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, NamedTuple, Optional, Union

import numpy as np

from repro.api.config import SimulationConfig
from repro.store.blobs import BlobStore
from repro.store.common import (
    StoreError,
    config_hash,
    connect_sqlite,
    group_address,
    run_id_for,
    utc_now,
)
from repro.store.index import SqliteRunIndex
from repro.store.query import StoredRun
from repro.store.schema import SCHEMA_VERSION, version_problem
from repro.store.schema import schema_version as read_schema_version
from repro.utils.io import atomic_write_text

if TYPE_CHECKING:
    # the physics types, for annotations only: a process that serves or
    # queries the store never imports them; the methods that build or
    # write arrays import what they use
    from repro.api.simulation import SimulationResult
    from repro.rt.propagator import TDState
    from repro.scf.groundstate import GroundState

#: version of the directory layout (not the index schema); 1 kept each
#: run as a directory of several files (repro <= 1.9)
STORE_VERSION = 2

StoreLike = Union["ResultStore", str, Path]


#: the one index backend; ``store.json`` records it so an older build
#: that still had others refuses a store it cannot read
INDEX_BACKEND = "sqlite"


class StoreCheck(NamedTuple):
    """What :func:`inspect_store` finds at a usable store path."""

    #: ``store.json``; ``None`` where a store would be created
    meta: Optional[Dict[str, Any]]
    #: the index's schema version (``None``: no index yet)
    schema_version: Optional[int]
    #: why this build cannot open the store, in the words the opener raises
    problems: List[str]


def inspect_store(root) -> StoreCheck:
    """Can ``root`` hold a result store, and does this build open the one there?

    The one test of a store path, run by :class:`ResultStore` before it
    creates anything, by the job queue, and by ``repro validate --store``
    (which prints the problems as warnings).  It reads ``store.json`` and
    the index schema version and creates and alters nothing.  A path
    that can never hold a store — a regular file, a non-empty directory
    without ``store.json``, a location nobody can write, a ``store.json``
    naming a removed index backend — raises :class:`StoreError`.
    """
    root = Path(root)
    meta_path = root / "store.json"
    if root.exists() and not root.is_dir():
        raise StoreError(f"store path {root} exists and is not a directory")
    if not meta_path.exists():
        if root.exists() and any(root.iterdir()):
            raise StoreError(
                f"{root} exists and is not a result store (no store.json); "
                f"refusing to adopt a non-empty directory"
            )
        ancestor = root.absolute()
        while not ancestor.exists():
            ancestor = ancestor.parent
        if not ancestor.is_dir() or not os.access(ancestor, os.W_OK):
            raise StoreError(
                f"store path {root} is not writable ({ancestor} denies write access)"
            )
        return StoreCheck(None, None, [])
    meta = json.loads(meta_path.read_text())
    backend = str(meta.get("backend", INDEX_BACKEND))
    if backend != INDEX_BACKEND:
        raise StoreError(
            f"store {root} uses index backend {backend!r}, which was removed in "
            f"1.8.0 ({INDEX_BACKEND} is the only run index); open it with "
            f"repro < 1.8 and re-add its runs to a new store"
        )
    problems = [
        version_problem("store_version", int(meta.get("store_version", 0)), STORE_VERSION)
    ]
    version: Optional[int] = None
    sqlite_path = root / SqliteRunIndex.filename
    if sqlite_path.exists():
        # connect_sqlite, not a raw sqlite3.connect: even this read-only
        # peek must honor WAL mode and the busy timeout, or it races the
        # 4-process write hammer straight into SQLITE_BUSY
        conn = connect_sqlite(sqlite_path)
        try:
            version = read_schema_version(conn)
        finally:
            conn.close()
        if version:  # 0: an index no opener has initialized yet
            problems.append(version_problem("index schema version", version, SCHEMA_VERSION))
    return StoreCheck(
        meta, version, [f"store {root} has {problem}" for problem in problems if problem]
    )


def _fft_dict(fft) -> Optional[Dict[str, Any]]:
    if fft is None:
        return None
    from repro.backend import FFTCounters

    return fft.to_dict() if isinstance(fft, FFTCounters) else dict(fft)


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
        self.index = SqliteRunIndex(self.root)

    # -- lifecycle -----------------------------------------------------------
    @classmethod
    def ensure(cls, store: StoreLike, **kwargs) -> "ResultStore":
        """Pass through a :class:`ResultStore`, or open/create one at a path."""
        if isinstance(store, ResultStore):
            return store
        return cls(store, **kwargs)

    def close(self) -> None:
        self.index.close()

    def __len__(self) -> int:
        return self.index.count()

    def __repr__(self) -> str:
        return f"ResultStore({str(self.root)!r}, runs={len(self)})"

    def _run_path(self, run_id: str) -> Path:
        return self.runs_dir / f"{run_id}.npz"

    # -- registration / writing ---------------------------------------------
    def begin_run(
        self,
        config: SimulationConfig,
        overrides: Optional[Mapping[str, Any]] = None,
        run_id: Optional[str] = None,
    ) -> str:
        """Register a run as ``running`` before it executes.

        An interrupted process leaves the row in ``running`` status —
        which is exactly what resume looks for to re-queue the variant.
        Re-registering an existing run keeps its original ``created``
        timestamp.
        """
        return self._write_row(config, run_id, "running", overrides)

    def _write_row(
        self,
        config: SimulationConfig,
        run_id: Optional[str],
        status: str,
        overrides: Optional[Mapping[str, Any]],
        **fields,
    ) -> str:
        """Upsert the run's index row — every writer's one way in.

        ``created``, ``gs_address`` and the sweep label carry over from
        the row already there unless the writer sets them: a sweep's
        parent labels the row in :meth:`begin_run`, and the worker that
        later finishes the run knows only the config and must not blank
        the label.
        """
        run_id = run_id or run_id_for(config)
        prior = self.index.get(run_id)
        now = utc_now()
        if overrides is None:
            overrides = prior.overrides if prior else {}
        run = StoredRun(
            run_id=run_id, config_hash=config_hash(config),
            gs_address=prior.gs_address if prior else None, status=status, error=None,
            created=prior.created if prior else now, updated=now, elapsed=0.0, n_times=0,
            config=config, overrides=dict(overrides), fft=None, parallel=None,
        )
        self.index.upsert(dataclasses.replace(run, **fields))
        return run_id

    def add_run(
        self,
        config: SimulationConfig,
        arrays: Mapping[str, np.ndarray],
        final_state: TDState,
        *,
        overrides: Optional[Mapping[str, Any]] = None,
        run_id: Optional[str] = None,
        fft=None,
        parallel: Optional[Mapping[str, Any]] = None,
        elapsed: float = 0.0,
        ground_state: Optional[GroundState] = None,
    ) -> str:
        """Store one finished run (the low-level entry all writers share).

        The ground state goes to the content-addressed blobs
        (deduplicated), trajectory and final state become the run's
        result file, and the index row flips to ``ok``.  Re-adding an
        existing ``run_id`` replaces its file atomically (latest wins);
        until the new file is complete the row keeps serving the old one.
        """
        from repro.api.simulation import write_result_npz

        run_id = run_id or run_id_for(config)
        if ground_state is not None:
            gs_address = self.blobs.put_ground_state(config, ground_state)
        else:
            gs_address = group_address(config)
            if not self.blobs.ground_state_path(gs_address).exists():
                gs_address = None
        arrays = {key: np.asarray(arr) for key, arr in arrays.items()}
        parallel = dict(parallel) if parallel is not None else None
        write_result_npz(self._run_path(run_id), config, arrays, final_state, parallel)
        return self._write_row(
            config,
            run_id,
            "ok",
            overrides,
            gs_address=gs_address,
            elapsed=float(elapsed),
            n_times=int(arrays["times"].shape[0]) if "times" in arrays else 0,
            fft=_fft_dict(fft),
            parallel=parallel,
        )

    def add_result(
        self,
        result: SimulationResult,
        *,
        overrides: Optional[Mapping[str, Any]] = None,
        run_id: Optional[str] = None,
        elapsed: float = 0.0,
    ) -> str:
        """Store a :class:`SimulationResult` (the facade entry point)."""
        return self.add_run(
            result.config,
            result.observables(),
            result.final_state,
            overrides=overrides,
            run_id=run_id,
            fft=result.fft,
            parallel=result.parallel.to_dict() if result.parallel is not None else None,
            elapsed=elapsed,
            ground_state=result.ground_state,
        )

    def mark_error(
        self,
        config: SimulationConfig,
        error: str,
        overrides: Optional[Mapping[str, Any]] = None,
        run_id: Optional[str] = None,
        elapsed: float = 0.0,
    ) -> str:
        """Record a failed run (kept in the index, re-queued on resume)."""
        return self._write_row(
            config, run_id, "error", overrides, error=str(error), elapsed=float(elapsed)
        )

    # -- ground-state cache ---------------------------------------------------
    def put_ground_state(self, config: SimulationConfig, gs: GroundState) -> str:
        """Store (dedup) the config's group SCF; returns the group address."""
        return self.blobs.put_ground_state(config, gs)

    def load_ground_state(self, config: SimulationConfig) -> Optional[GroundState]:
        """The stored SCF for this config's group, or ``None``."""
        return self.blobs.ground_state_for(config)

    # -- lookup / materialization ---------------------------------------------
    def get(self, run_id: str) -> StoredRun:
        run = self.index.get(run_id)
        if run is None:
            raise StoreError(
                f"store {self.root} has no run {run_id!r}; "
                f"list ids with: repro results ls {self.root}"
            )
        return run

    def find_completed(self, config: SimulationConfig) -> Optional[StoredRun]:
        """The completed stored run for exactly this config (else ``None``).

        The config-hash match is what sweep resume uses: a variant whose
        hash maps to an ``ok`` row is restored instead of recomputed.
        """
        run = self.index.find_by_config(config_hash(config))
        return run if run is not None and run.ok else None

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

    def load_arrays(self, run_id: str) -> Dict[str, np.ndarray]:
        """The run's observable series (bitwise what was stored)."""
        from repro.api.simulation import read_result_npz

        self.get(run_id)  # raise the readable error for unknown ids
        return read_result_npz(self._run_path(run_id)).observables

    def load_result(
        self, run_id: str, with_ground_state: bool = False
    ) -> SimulationResult:
        """Materialize a stored run back into a :class:`SimulationResult`.

        The result is bit-identical to the one originally stored:
        ``save_npz`` on it reproduces the stored file's content
        (round-trip tested).  ``with_ground_state=True`` also loads the
        group's SCF blob (off by default — it is the large block).
        """
        from repro.api.simulation import SimulationResult, read_result_npz
        from repro.backend import FFTCounters
        from repro.parallel.context import ParallelRunInfo
        from repro.rt.propagator import PropagationRecord

        run = self._completed(run_id)
        stored = read_result_npz(self._run_path(run_id), expected_config=run.config)
        ground_state = None
        if with_ground_state and run.gs_address:
            ground_state = self.blobs.get_ground_state(run.gs_address)
        return SimulationResult(
            config=run.config,
            record=PropagationRecord.from_arrays(stored.observables),
            final_state=stored.final_state,
            ground_state=ground_state,
            fft=FFTCounters.from_dict(run.fft) if run.fft else None,
            parallel=ParallelRunInfo.from_dict(stored.parallel) if stored.parallel else None,
        )

    def export(self, run_id: str, path) -> Path:
        """Copy a completed run's result file to ``path``."""
        return Path(shutil.copyfile(self.result_path(run_id), path))

    # -- queries ---------------------------------------------------------------
    def query(
        self,
        status: Optional[str] = None,
        where: Optional[Mapping[str, Any]] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        limit: Optional[int] = None,
        offset: int = 0,
    ) -> List[StoredRun]:
        """Filtered runs: by status, dotted config keys, creation window.

        ``limit``/``offset`` page through the match set in creation
        order (service stores accumulate thousands of runs).
        """
        return self.index.rows(
            status=status, where=where, since=since, until=until, limit=limit, offset=offset
        )

