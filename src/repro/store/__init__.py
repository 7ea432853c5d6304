"""``repro.store`` — append-able, resumable, content-addressed result store.

One :class:`ResultStore` per study directory: runs append as they
finish (chunked trajectory records), configs and ground states are
deduplicated by content address (every variant in a shared-SCF sweep
group points at one ground-state blob), and a schema-versioned index
answers queries by dotted config key, status, and time window.

Entry points:

- ``Simulation.propagate(store=...)`` / ``run_ensemble(store=...)`` —
  append as you compute
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
from repro.store.migrate import SCHEMA_VERSION, ensure_schema
from repro.store.query import StoredRun, parse_when, parse_where
from repro.store.records import (
    read_chunks,
    read_state,
    record_from_arrays,
    write_chunks,
    write_state,
)
from repro.store.store import (
    DEFAULT_CHUNK_STEPS,
    STORE_VERSION,
    ResultStore,
    store_schema_info,
)

__all__ = [
    "BlobStore",
    "DEFAULT_CHUNK_STEPS",
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
    "parse_when",
    "parse_where",
    "read_chunks",
    "read_state",
    "record_from_arrays",
    "run_id_for",
    "store_schema_info",
    "write_chunks",
    "write_state",
]
