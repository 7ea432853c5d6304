""":class:`ResultStore` — one directory per study, runs appended as they finish.

On-disk layout::

    study/
      store.json            # store metadata: version, chunking
      index.sqlite          # queryable run index (and the job queue)
      blobs/
        configs/<sha>.json         # content-addressed config provenance
        ground_states/<sha>.npz    # one SCF per (system, scf, engine) group
      runs/
        <run_id>/
          chunk-000000.npz  # chunked observable series
          state.npz         # final TDState + parallel accounting

The store is the durable layer between the engines and the filesystem:
:meth:`Simulation.propagate(store=...) <repro.api.simulation.Simulation.propagate>`
and :func:`run_ensemble(store=...) <repro.api.ensemble.run_ensemble>`
append into it, ``repro sweep --store`` resumes from it, and ``repro
results`` queries it.  Every stored run materializes back into a
bit-identical :class:`~repro.api.simulation.SimulationResult`
(:meth:`load_result` / :meth:`export`).
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.api.config import SimulationConfig
from repro.api.simulation import SimulationResult
from repro.backend import FFTCounters
from repro.parallel.context import ParallelRunInfo
from repro.rt.propagator import TDState
from repro.scf.groundstate import GroundState
from repro.store.blobs import BlobStore
from repro.store.common import (
    StoreError,
    config_hash,
    group_address,
    run_id_for,
    utc_now,
)
from repro.store.index import SqliteRunIndex
from repro.store.migrate import SCHEMA_VERSION
from repro.store.query import StoredRun
from repro.store.records import (
    read_chunks,
    read_state,
    record_from_arrays,
    write_chunks,
    write_state,
)
from repro.utils.io import atomic_write_text

#: version of the store.json layout itself (not the index schema)
STORE_VERSION = 1

#: default maximum observations per chunk file
DEFAULT_CHUNK_STEPS = 256

StoreLike = Union["ResultStore", str, Path]


#: the one index backend; ``store.json`` records it so an older build
#: that still had others refuses a store it cannot read
INDEX_BACKEND = "sqlite"


def _check_index_backend(meta: Mapping[str, Any], root: Path) -> None:
    """``store.json`` comes from disk: a backend this build lacks is refused by name."""
    backend = str(meta.get("backend", INDEX_BACKEND))
    if backend != INDEX_BACKEND:
        raise StoreError(
            f"store {root} uses index backend {backend!r}, which was removed in "
            f"1.8.0 ({INDEX_BACKEND} is the only run index); open it with "
            f"repro < 1.8 and re-add its runs to a new store"
        )


def _fft_dict(fft) -> Optional[Dict[str, Any]]:
    if fft is None:
        return None
    return fft.to_dict() if isinstance(fft, FFTCounters) else dict(fft)


class ResultStore:
    """Append-able, resumable, content-addressed result store for one study.

    Parameters
    ----------
    root:
        The study directory.  Created (with metadata) when missing and
        ``create=True``; opening an existing store reads its metadata,
        so ``chunk_steps`` only matters at creation time.
    chunk_steps:
        Maximum observations per trajectory chunk file.
    """

    def __init__(
        self,
        root,
        chunk_steps: int = DEFAULT_CHUNK_STEPS,
        create: bool = True,
    ) -> None:
        self.root = Path(root)
        meta_path = self.root / "store.json"
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            version = int(meta.get("store_version", 0))
            if version > STORE_VERSION:
                raise StoreError(
                    f"store {self.root} has store_version {version}, newer than "
                    f"this build's {STORE_VERSION}; upgrade repro to open it"
                )
            _check_index_backend(meta, self.root)
            chunk_steps = int(meta.get("chunk_steps", chunk_steps))
        elif self.root.exists() and any(self.root.iterdir()):
            raise StoreError(
                f"{self.root} exists and is not a result store (no store.json); "
                f"refusing to adopt a non-empty directory"
            )
        elif not create:
            raise StoreError(f"no result store at {self.root}")
        else:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                meta_path,
                json.dumps(
                    {
                        "store_version": STORE_VERSION,
                        "backend": INDEX_BACKEND,
                        "chunk_steps": int(chunk_steps),
                        "created": utc_now(),
                    },
                    sort_keys=True,
                    indent=2,
                )
                + "\n",
            )
        if chunk_steps < 1:
            raise StoreError(f"chunk_steps must be >= 1, got {chunk_steps}")
        self.chunk_steps = int(chunk_steps)
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

    @property
    def schema_version(self) -> int:
        return self.index.schema_version

    def _run_dir(self, run_id: str) -> Path:
        return self.runs_dir / run_id

    # -- registration / append ----------------------------------------------
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
        self.blobs.put_config(config)
        if overrides is None:
            overrides = prior["overrides"] if prior else {}
        row = {
            "run_id": run_id,
            "config_hash": config_hash(config),
            "gs_address": prior["gs_address"] if prior else None,
            "status": status,
            "error": None,
            "created": prior["created"] if prior else now,
            "updated": now,
            "elapsed": 0.0,
            "n_chunks": 0,
            "n_times": 0,
            "config": config.to_dict(),
            "overrides": dict(overrides),
            "fft": None,
            "parallel": None,
        }
        row.update(fields)
        self.index.upsert(row)
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
        """Append one finished run (the low-level entry all writers share).

        Config and ground state go to the content-addressed blobs
        (deduplicated), the observable series become chunk files, the
        final state lands in ``state.npz``, and the index row flips to
        ``ok``.  Re-adding an existing ``run_id`` replaces its payload
        (latest wins).
        """
        run_id = run_id or run_id_for(config)
        if ground_state is not None:
            gs_address = self.blobs.put_ground_state(config, ground_state)
        else:
            gs_address = group_address(config)
            if self.blobs.get_ground_state(gs_address) is None:
                gs_address = None
        run_dir = self._run_dir(run_id)
        if run_dir.exists():
            shutil.rmtree(run_dir)
        run_dir.mkdir(parents=True)
        arrays = {key: np.asarray(arr) for key, arr in arrays.items()}
        n_chunks = write_chunks(run_dir, arrays, self.chunk_steps)
        parallel = dict(parallel) if parallel is not None else None
        write_state(run_dir, final_state, parallel)
        return self._write_row(
            config,
            run_id,
            "ok",
            overrides,
            gs_address=gs_address,
            elapsed=float(elapsed),
            n_chunks=n_chunks,
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
        """Append a :class:`SimulationResult` (the facade entry point)."""
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

    def append_result(
        self, run_id: str, result: SimulationResult, elapsed: float = 0.0
    ) -> str:
        """Extend a stored run with a continued trajectory window.

        New observations append as fresh chunks (existing chunk files
        are never rewritten), the final state is replaced, and the FFT
        tallies merge — the store-level analogue of calling
        :meth:`Simulation.propagate` again on a live simulation.
        """
        row = self.index.get(run_id)
        if row is None:
            raise StoreError(f"store has no run {run_id!r} to append to")
        if row["status"] != "ok":
            raise StoreError(
                f"run {run_id!r} has status {row['status']!r}; only completed "
                f"runs can be extended"
            )
        if row["config_hash"] != config_hash(result.config):
            raise StoreError(
                f"run {run_id!r} was produced by a different config; "
                f"refusing to append a mismatched trajectory"
            )
        run_dir = self._run_dir(run_id)
        arrays = result.observables()
        written = write_chunks(run_dir, arrays, self.chunk_steps)
        parallel = (
            result.parallel.to_dict() if result.parallel is not None else row["parallel"]
        )
        write_state(run_dir, result.final_state, parallel)
        fft = row["fft"]
        if result.fft is not None:
            merged = (
                FFTCounters.from_dict(fft) if fft else FFTCounters()
            )
            merged.merge(result.fft)
            fft = merged.to_dict()
        row.update(
            {
                "status": "ok",
                "updated": utc_now(),
                "elapsed": float(row["elapsed"]) + float(elapsed),
                "n_chunks": int(row["n_chunks"]) + written,
                "n_times": int(row["n_times"])
                + int(np.asarray(arrays["times"]).shape[0]),
                "fft": fft,
                "parallel": parallel,
            }
        )
        self.index.upsert(row)
        return run_id

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
        row = self.index.get(run_id)
        if row is None:
            raise StoreError(
                f"store {self.root} has no run {run_id!r}; "
                f"list ids with: repro results ls {self.root}"
            )
        return StoredRun.from_row(row)

    def find_completed(self, config: SimulationConfig) -> Optional[StoredRun]:
        """The completed stored run for exactly this config (else ``None``).

        The config-hash match is what sweep resume uses: a variant whose
        hash maps to an ``ok`` row is restored instead of recomputed.
        """
        row = self.index.find_by_config(config_hash(config))
        if row is None or row["status"] != "ok":
            return None
        return StoredRun.from_row(row)

    def load_arrays(self, run_id: str) -> Dict[str, np.ndarray]:
        """The run's full observable series (chunks concatenated, bitwise)."""
        self.get(run_id)  # raise the readable error for unknown ids
        return read_chunks(self._run_dir(run_id))

    def load_result(
        self, run_id: str, with_ground_state: bool = False
    ) -> SimulationResult:
        """Materialize a stored run back into a :class:`SimulationResult`.

        The result is bit-identical to the one originally stored:
        ``save_npz`` on it reproduces the original run's file content
        (round-trip tested).  ``with_ground_state=True`` also loads the
        group's SCF blob (off by default — it is the large block).
        """
        run = self.get(run_id)
        if run.status != "ok":
            raise StoreError(
                f"run {run_id!r} has status {run.status!r} "
                f"({run.error or 'no trajectory stored'}); only completed runs "
                f"materialize into results"
            )
        arrays = read_chunks(self._run_dir(run_id))
        state, parallel_dict = read_state(self._run_dir(run_id))
        ground_state = None
        if with_ground_state and run.gs_address:
            ground_state = self.blobs.get_ground_state(run.gs_address)
        return SimulationResult(
            config=run.config,
            record=record_from_arrays(arrays),
            final_state=state,
            ground_state=ground_state,
            fft=FFTCounters.from_dict(run.fft) if run.fft else None,
            parallel=(
                ParallelRunInfo.from_dict(parallel_dict) if parallel_dict else None
            ),
        )

    def export(self, run_id: str, path) -> Path:
        """Write a stored run as a standalone ``save_npz`` result file."""
        return self.load_result(run_id).save_npz(path)

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
        rows = self.index.rows(
            status=status, where=where, since=since, until=until, limit=limit, offset=offset
        )
        return [StoredRun.from_row(row) for row in rows]


def store_schema_info(root) -> Dict[str, Any]:
    """Peek at a store's versions without opening (or migrating) it.

    Returns ``{"store_version", "backend", "schema_version"}``;
    ``repro validate`` uses this to warn about stores written by newer
    builds instead of failing on them.
    """
    root = Path(root)
    meta_path = root / "store.json"
    if not meta_path.exists():
        raise StoreError(f"no result store at {root} (missing store.json)")
    meta = json.loads(meta_path.read_text())
    _check_index_backend(meta, root)
    version: Optional[int] = None
    sqlite_path = root / "index.sqlite"
    if sqlite_path.exists():
        from repro.store.common import connect_sqlite
        from repro.store.migrate import schema_version as _sqlite_version

        # connect_sqlite, not a raw sqlite3.connect: even this read-only
        # peek must honor WAL mode and the busy timeout, or it races the
        # 4-process write hammer straight into SQLITE_BUSY
        conn = connect_sqlite(sqlite_path)
        try:
            version = _sqlite_version(conn)
        finally:
            conn.close()
    return {
        "store_version": int(meta.get("store_version", 0)),
        "backend": INDEX_BACKEND,
        "schema_version": version,
        "code_schema_version": SCHEMA_VERSION,
    }
