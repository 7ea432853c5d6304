"""``repro.store`` — resumable, content-addressed result store.

One :class:`ResultStore` per study directory: each finished run is one
result file (the file ``SimulationResult.save_npz`` writes), ground
states are deduplicated by content address (every variant in a
shared-SCF sweep group points at one ground-state blob), and a
schema-versioned index of :class:`StoredRun` rows answers queries by
dotted config key, status, and time window.  :func:`inspect_store` is
the one test of whether a path can hold a store and whether this build
opens the store there.

Entry points:

- ``Simulation.propagate(store=...)`` / ``run_ensemble(store=...)`` —
  store each run as it finishes
- ``repro sweep --store DIR`` — resumable sweeps (completed variants
  are restored, not recomputed)
- ``repro results ls|show|export`` — query and materialize stored runs
"""

from repro.store.blobs import BlobStore
from repro.store.common import (
    StoreError,
    canonical_json,
    config_hash,
    flatten_dotted,
    group_address,
    group_key,
    run_id_for,
)
from repro.store.index import SqliteRunIndex
from repro.store.query import StoredRun, parse_when, parse_where
from repro.store.schema import SCHEMA_VERSION, ensure_schema
from repro.store.store import STORE_VERSION, ResultStore, inspect_store

__all__ = [
    "BlobStore",
    "ResultStore",
    "SCHEMA_VERSION",
    "STORE_VERSION",
    "SqliteRunIndex",
    "StoreError",
    "StoredRun",
    "canonical_json",
    "config_hash",
    "ensure_schema",
    "flatten_dotted",
    "group_address",
    "group_key",
    "inspect_store",
    "parse_when",
    "parse_where",
    "run_id_for",
]
