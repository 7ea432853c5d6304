"""``repro.store`` — resumable, content-addressed result store.

One :class:`ResultStore` per study directory: each finished run is one
result file (the file ``SimulationResult.save_npz`` writes), ground
states are deduplicated by content address (every variant in a
shared-SCF sweep group points at one ground-state blob), and a
schema-versioned index of :class:`StoredRun` rows answers queries by
dotted config key, status, and time window.  A run's row is its job
row — one id, one table (``jobs``, owned by
:class:`~repro.serve.queue.JobQueue`), one state machine — whichever
verb made it.  :func:`inspect_store` is the one test of whether a path
can hold a store and whether this build opens the store there.

Entry points:

- ``Simulation.run(store=...)`` / ``run_ensemble(store=...)`` —
  store each run as it finishes, its config's trajectory from t = 0
- ``repro sweep --store DIR`` — resumable sweeps (completed variants
  are restored, not recomputed)
- ``repro jobs ls|show|fetch DIR`` — list, show and copy out stored runs
"""

from repro.utils.lazy import lazy_exports

#: public name -> submodule, imported on first use (so the job queue,
#: which the store's modules and the store's opener both import, can
#: import ``repro.store.common`` without the store itself)
_EXPORTS = {
    "BlobStore": ".blobs",
    "ResultStore": ".store",
    "SCHEMA_VERSION": ".schema",
    "STORE_VERSION": ".schema",
    "StoreError": ".common",
    "StoredRun": ".query",
    "canonical_json": ".common",
    "config_hash": ".common",
    "ensure_schema": ".schema",
    "flatten_dotted": ".common",
    "group_address": ".common",
    "group_key": ".common",
    "inspect_store": ".schema",
    "parse_when": ".query",
    "parse_where": ".query",
    "run_id_for": ".common",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
