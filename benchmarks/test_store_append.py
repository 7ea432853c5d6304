"""Result-store throughput: append and query rates at the 1k-run scale.

The ROADMAP target is "a result store that survives a million runs";
this benchmark measures the two operations that scale with study size —
appending a finished run (blob dedup + result-file write + index upsert) and
querying the index by dotted config key — over 1000 synthetic tiny runs
on the default sqlite backend.

Emits ``BENCH_store.json`` (at the repo root under ``--write-bench``,
under pytest's tmp dir otherwise): appends/s, dotted-key query latency,
and single-run lookup latency, measured against the populated store (not
an empty one).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.api import SimulationConfig
from repro.api.ensemble import apply_overrides
from repro.rt.propagator import TDState
from repro.store import ResultStore, run_id_for

BENCH_NAME = "BENCH_store.json"

N_RUNS = 1000

#: observations per synthetic trajectory (a short real run's worth)
N_OBS = 16

BASE = SimulationConfig.from_dict(
    {
        "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "lda"},
        "scf": {"nbands": 8, "density_tol": 1e-4, "max_scf": 10},
        "field": {"kind": "static_kick", "params": {"kick": 0.001}},
        "propagation": {"propagator": "ptim", "dt_as": 50.0, "n_steps": N_OBS},
    }
)


def _variant(i: int) -> SimulationConfig:
    return apply_overrides(BASE, {"field.params.kick": 1e-3 + 1e-6 * i})


def _synthetic_run(i: int):
    rng = np.random.default_rng(i)
    arrays = {
        "times": np.arange(float(N_OBS)),
        "dipole": rng.normal(size=(N_OBS, 3)),
        "energy": rng.normal(size=N_OBS),
        "particle_number": np.full(N_OBS, 8.0),
        "field": rng.normal(size=(N_OBS, 3)),
    }
    state = TDState(
        phi=rng.normal(size=(4, 8)) + 0j, sigma=np.zeros((4, 4), complex), time=1.0
    )
    return arrays, state


@pytest.fixture(scope="module")
def bench_results(tmp_path_factory, bench_dir):
    store = ResultStore(tmp_path_factory.mktemp("bench") / "study")

    t0 = time.perf_counter()
    for i in range(N_RUNS):
        arrays, state = _synthetic_run(i)
        store.add_run(
            _variant(i), arrays, state,
            overrides={"field.params.kick": 1e-3 + 1e-6 * i}, elapsed=0.1,
        )
    t_append = time.perf_counter() - t0

    # dotted-key query against the fully populated index
    target = 1e-3 + 1e-6 * (N_RUNS // 2)
    t1 = time.perf_counter()
    hits = store.query(where={"field.params.kick": target}, status="ok")
    t_query = time.perf_counter() - t1
    assert len(hits) == 1

    t2 = time.perf_counter()
    run = store.get(run_id_for(_variant(N_RUNS // 3)))
    t_get = time.perf_counter() - t2
    assert run.ok

    t3 = time.perf_counter()
    everything = store.query()
    t_scan = time.perf_counter() - t3
    assert len(everything) == N_RUNS

    results = {
        "n_runs": N_RUNS,
        "observations_per_run": N_OBS,
        "backend": "sqlite",
        "schema_version": store.schema_version,
        "append_total_s": t_append,
        "appends_per_s": N_RUNS / t_append,
        "query_by_dotted_key_ms": t_query * 1e3,
        "get_by_run_id_ms": t_get * 1e3,
        "full_scan_ms": t_scan * 1e3,
    }
    store.close()
    (bench_dir / BENCH_NAME).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return results


def test_bench_store_json_written(bench_results, bench_dir):
    data = json.loads((bench_dir / BENCH_NAME).read_text())
    assert data["n_runs"] == N_RUNS
    assert data["appends_per_s"] > 0


def test_append_and_query_scale_to_1k_runs(bench_results):
    """Soft floors far below the reference-container numbers, so noisy CI
    runners don't flake; the JSON carries the honest measurements."""
    assert bench_results["appends_per_s"] >= 20, bench_results
    assert bench_results["query_by_dotted_key_ms"] <= 1000, bench_results
