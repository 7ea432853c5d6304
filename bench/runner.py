"""One workload run: set-up probes, the timed body, the result record.

This is what ``python -m bench --workload W --seed N --seconds S
--trace 0|1`` executes, and what the suite starts once per run in a
fresh interpreter.  With tracing off it yields every end-to-end metric;
with tracing on, every per-layer metric and a trace file.
"""

from __future__ import annotations

import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from bench import layers
from bench.calibrate import PERIOD_S, REFERENCE_S, HostSpeed
from bench.trace import Tracer, per_span_cost
from bench.workloads import BODIES, MAX_PROCS, Checks, RunContext, run_setup

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = Path(__file__).resolve().parent / "out"

#: BLAS/OpenMP pools are pinned to one thread so a run uses the cores it
#: says it uses; set by ``bench.__main__`` before numpy is imported
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: fresh-interpreter set-ups timed per run; ``setup_s`` is their median
SETUP_PROBES = 3


def provenance(seed: int, seconds: float, runs: int = 1) -> Dict[str, Any]:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
        "runs": runs,
        "calibration": {"reference_s": REFERENCE_S, "period_s": PERIOD_S},
    }


def _peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def _time_setup(workload: str, seed: int, seconds: float, scratch: Path, speed: HostSpeed) -> Dict[str, Any]:
    """``setup_s``: fresh interpreters, spawn to "first unit of work can start"."""
    walls: List[float] = []
    lo = time.perf_counter()
    for i in range(SETUP_PROBES):
        spawned = time.time()
        proc = subprocess.run(
            [
                sys.executable, "-m", "bench", "--setup-probe", workload,
                "--seed", str(seed), "--seconds", str(seconds),
                "--out", str(scratch / f"probe-{i}"),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready_unix"]
        walls.append(ready - spawned)
    hi = time.perf_counter()
    wall = statistics.median(walls)
    return {
        "setup_s": speed.normalize(wall, lo, hi), "raw": wall, "samples": walls,
        "calibration": speed.readings(lo, hi),
    }


def setup_probe(workload: str, seed: int, seconds: float, scratch: Path) -> int:
    """Child side of :func:`_time_setup`: set up, report when ready, tear down."""
    scratch.mkdir(parents=True, exist_ok=True)
    ready = run_setup(workload, RunContext(seed=seed, seconds=seconds, scratch=scratch))
    print(json.dumps({"ready_unix": ready}))
    return 0


@contextmanager
def tracing(run_id: str) -> Iterator[Tuple[Tracer, float]]:
    """``repro`` wrapped for the duration of the block: ``(tracer, cost per span)``."""
    for package in layers.TRACED_PACKAGES:
        importlib.import_module(package)
    tracer = Tracer(run_id=run_id)
    cost = per_span_cost()
    tracer.install(layers.SPAN_TARGETS)
    try:
        yield tracer, cost
    finally:
        tracer.uninstall()


def layer_metrics(tracer: Tracer, outcome, cost_per_span: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run, zeros where a layer did not run."""
    stats = tracer.stats()
    values: Dict[str, float] = {}
    for span in layers.span_names():
        s = stats.get(span)
        values[f"{span}.self_s"] = s.self_s if s else 0.0
        values[f"{span}.calls"] = s.calls if s else 0
    for name, _, _ in layers.COUNTERS:
        values[name] = outcome.counters.get(name, 0)
    wall = sum(hi - lo for lo, hi in outcome.phases)
    covered = tracer.root_time(outcome.phases, threading.main_thread().ident)
    values["trace_coverage_frac"] = covered / wall
    # measured where the run could replay its steps untraced (W1/W2); an
    # estimate elsewhere: spans recorded x the cost of one empty wrapper
    values["trace_overhead_frac"] = (
        outcome.trace_overhead
        if outcome.trace_overhead is not None
        else tracer.count_in(outcome.phases) * cost_per_span / wall
    )
    return values


def run_once(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path = DEFAULT_OUT,
    detail_path: Optional[Path] = None,
) -> Dict[str, Any]:
    """Run one workload; returns the contract's result object."""
    out_dir = Path(out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"run-{workload}-", dir=out_dir))
    # repro.serve exports results through tempfile; keep that, and every
    # child's temporaries, inside the checkout
    (scratch / "tmp").mkdir()
    tempfile.tempdir = str(scratch / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir

    checks = Checks()
    detail: Dict[str, Any] = {
        "workload": workload,
        "trace": trace,
        "provenance": provenance(seed, seconds),
    }
    tracer: Optional[Tracer] = None
    try:
        with ExitStack() as stack:
            # the run keeps to the CPUs it needs — one for a single simulation,
            # min(2, nproc) for pool and service workers — and each of those
            # carries a host-speed sidecar (children inherit the affinity)
            n_cpus = 1 if workload in layers.RT_WORKLOADS else MAX_PROCS
            cpus = sorted(os.sched_getaffinity(0))[-n_cpus:]
            os.sched_setaffinity(0, cpus)
            speed = HostSpeed(scratch, cpus)
            stack.callback(speed.stop)
            if trace:
                tracer, cost = stack.enter_context(tracing(f"{workload}-seed{seed}"))
            else:
                setup = _time_setup(workload, seed, seconds, scratch, speed)
            ctx = RunContext(
                seed=seed, seconds=seconds, scratch=scratch, speed=speed, checks=checks, tracer=tracer
            )
            outcome = BODIES[workload](ctx)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)

    if tracer is not None:
        values = layer_metrics(tracer, outcome, cost)
        units = {name: unit for name, unit, _ in layers.per_layer_metrics()}
        detail["trace_file"] = str(
            tracer.write(out_dir / f"trace-{workload}-seed{seed}.json", detail["provenance"])
        )
        detail["layers"] = {k: v._asdict() for k, v in tracer.stats().items()}
        detail["end_to_end_traced"] = outcome.metrics
    else:
        values = dict(outcome.metrics)
        values["setup_s"] = setup["setup_s"]
        values["peak_rss_mb"] = _peak_rss_mb()
        units = {m.name: m.unit for m in layers.END_TO_END}
        detail["raw"] = {**outcome.raw, "setup_s": setup["raw"]}
        detail["samples"] = {**outcome.samples, "setup_s_raw": setup["samples"]}
        detail["calibration"] = {**outcome.calibration, "setup": setup["calibration"]}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    detail.update(result, failures=checks.failures, counters=outcome.counters)
    if detail_path is not None:
        Path(detail_path).parent.mkdir(parents=True, exist_ok=True)
        Path(detail_path).write_text(json.dumps(detail, indent=1, sort_keys=True) + "\n")
    for failure in checks.failures:
        print(f"CHECK FAILED [{workload}]: {failure}", file=sys.stderr)
    return result
