"""Job-service throughput: submit latency, drain rate, cache-hit reuse.

A real :class:`~repro.serve.service.JobService` on an ephemeral port
with four spawned workers takes a burst of eight tiny delta-kick jobs
(one shared ground-state group, so the SCF coalesces) and the clock
runs from first ``POST /jobs`` to an empty queue.  The same burst is
then submitted again: every config now maps to a completed stored run,
so the jobs are born ``ok`` without touching a worker — the cache-hit
column measures exactly the reuse fast path the store is for.

Emits ``BENCH_serve.json`` (at the repo root under ``--write-bench``,
under pytest's tmp dir otherwise): per-submit HTTP latency, jobs/s
through the 4-worker pool (cache-miss), and the hit/miss wall ratio.
"""

from __future__ import annotations

import json
import statistics
import time

import pytest

from repro.api import SimulationConfig
from repro.api.ensemble import apply_overrides
from repro.serve import JobService, ServeClient

BENCH_NAME = "BENCH_serve.json"

N_JOBS = 8
N_WORKERS = 4

BASE = SimulationConfig.from_dict(
    {
        "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "lda"},
        "scf": {"nbands": 20, "density_tol": 1e-4, "max_scf": 40},
        "field": {"kind": "static_kick", "params": {"kick": 0.001}},
        "propagation": {"propagator": "ptim", "dt_as": 50.0, "n_steps": 2},
    }
)


def _variant(i: int) -> SimulationConfig:
    return apply_overrides(BASE, {"field.params.kick": 1e-3 + 1e-4 * i})


def _submit_burst(client: ServeClient):
    """POST every variant; returns (job_ids, per-submit latencies in s)."""
    job_ids, latencies = [], []
    for i in range(N_JOBS):
        t0 = time.perf_counter()
        job = client.submit(_variant(i))
        latencies.append(time.perf_counter() - t0)
        job_ids.append(job["job_id"])
    return job_ids, latencies


@pytest.fixture(scope="module")
def bench_results(tmp_path_factory, bench_dir):
    root = tmp_path_factory.mktemp("serve_bench") / "store"
    with JobService(root, port=0, workers=N_WORKERS, backoff=0.2) as service:
        client = ServeClient(service.url)

        # cache-miss: real execution through the 4-worker pool
        t0 = time.perf_counter()
        job_ids, miss_latencies = _submit_burst(client)
        assert service.wait_all(timeout_s=600.0)
        miss_wall = time.perf_counter() - t0
        statuses = {jid: client.job(jid)["status"] for jid in job_ids}
        assert set(statuses.values()) == {"ok"}, statuses

        # cache-hit: identical burst, resolved from the store at submit
        t1 = time.perf_counter()
        hit_ids, hit_latencies = _submit_burst(client)
        assert service.wait_all(timeout_s=60.0)
        hit_wall = time.perf_counter() - t1
        assert hit_ids == job_ids
        assert all(client.job(jid)["status"] == "ok" for jid in hit_ids)

        stats = service.stats()
        results = {
            "n_jobs": N_JOBS,
            "workers": N_WORKERS,
            "ground_state_blobs": stats["ground_state_blobs"],
            "submit_latency_ms_mean": statistics.mean(miss_latencies) * 1e3,
            "submit_latency_ms_p50": statistics.median(miss_latencies) * 1e3,
            "submit_latency_ms_max": max(miss_latencies) * 1e3,
            "miss_wall_s": miss_wall,
            "jobs_per_s_4workers": N_JOBS / miss_wall,
            "hit_wall_s": hit_wall,
            "hit_submit_latency_ms_p50": statistics.median(hit_latencies) * 1e3,
            "hit_speedup": miss_wall / hit_wall,
        }
    (bench_dir / BENCH_NAME).write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return results


def test_bench_serve_json_written(bench_results, bench_dir):
    data = json.loads((bench_dir / BENCH_NAME).read_text())
    assert data["n_jobs"] == N_JOBS
    assert data["jobs_per_s_4workers"] > 0


def test_serve_throughput_floors(bench_results):
    """Soft floors far below the reference-container numbers (CI noise);
    the JSON carries the honest measurements."""
    # one coalesced SCF for the whole burst
    assert bench_results["ground_state_blobs"] == 1, bench_results
    assert bench_results["jobs_per_s_4workers"] >= 0.05, bench_results
    assert bench_results["submit_latency_ms_p50"] <= 2000, bench_results
    # reusing stored runs must beat recomputing them
    assert bench_results["hit_wall_s"] < bench_results["miss_wall_s"], bench_results
