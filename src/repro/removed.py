"""Names this package used to export, and what replaced them.

One table, two readers: the ``removed-api`` lint rule flags any import,
attribute access or keyword in source that would bring a name back, and
the strict config/file parsers reject (or, for files this package wrote
itself, strip) the removed keys by name instead of as a typo.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: dotted module/function/attribute name -> where its job went
REMOVED_NAMES: Dict[str, str] = {
    "repro.fft": "repro.backend (make_backend, Backend, FFTCounters)",
    "global_engine": "an explicit backend: repro.backend.make_backend(...)",
    "PlaneWaveGrid.engine": "PlaneWaveGrid.backend",
    "repro.utils.timing": "time.perf_counter at the call site (nothing used Timings/Stopwatch)",
    "Simulation.isolate_counters": "nothing: sweeps no longer run variants on threads",
    "resolve_scheduler": "nothing: run_ensemble picks the process model from workers",
    "register_store_backend": "nothing: sqlite is the only run index",
    "ResultStore.append_result": "ResultStore.add_result (a run is stored once, whole)",
    "repro.store.records": "repro.api.simulation.write_result_npz / read_result_npz "
    "(a stored run is a result file) and PropagationRecord.from_arrays",
    "repro.store.migrate": "repro.store.schema (one schema version; older stores are refused by name)",
    "DistributedFockExchange.apply": "DistributedFockExchange.apply_diag",
}

#: callable -> keyword arguments it no longer takes
REMOVED_KEYWORDS: Dict[str, Tuple[str, ...]] = {
    "run_ensemble": ("scheduler",),
    "ResultStore": ("backend", "chunk_steps"),
}

#: config section -> key removed from it -> what the user should do
REMOVED_CONFIG_KEYS: Dict[str, Dict[str, str]] = {
    "sweep": {
        "scheduler": "removed in 1.8.0; delete the key: workers = 1 runs in "
        "process, workers > 1 runs on spawned worker processes",
    },
}
