"""The four workloads: inputs from a seed, the timed body, the checks.

Work is *sized* from ``--seconds`` (step, variant and job counts scale
linearly; :data:`REFERENCE_SECONDS` gives the documented sizes) rather
than cut off by a timer, so two commits given the same arguments run
the identical work and the program's own counters repeat exactly.

The program only ever sees the generated configs: ``--seed`` feeds
``scf.seed`` and shifts the kick grids, so content hashes differ per
seed while the amount of work does not.
"""

from __future__ import annotations

import os
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from bench.calibrate import HostSpeed
from bench.trace import Tracer

#: ``--seconds`` at which the sizes below apply (BENCHMARK.json's run_seconds)
REFERENCE_SECONDS = 20

#: compute processes never exceed this (the reference host has 2 CPUs)
MAX_PROCS = min(2, os.cpu_count() or 1)

PARTICLE_TOL = 1e-8
ORTHO_TOL = 1e-10


class Checks:
    """Counts operations and correctness checks; a failure never raises."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)


@dataclass
class RunContext:
    """What one workload run is given."""

    seed: int
    seconds: float
    #: per-run directory inside the checkout; removed when the run ends
    scratch: Path
    #: absent in a set-up probe and in the self-test, which report no timing
    speed: Optional[HostSpeed] = None
    checks: Checks = field(default_factory=Checks)
    #: set on the traced pass only
    tracer: Optional[Tracer] = None

    def scaled(self, n: int, minimum: int) -> int:
        return max(minimum, round(n * self.seconds / REFERENCE_SECONDS))

    def at_reference(self, wall_s: float, lo: float, hi: float) -> float:
        """``wall_s`` at reference host speed, read over ``perf_counter`` window ``lo..hi``."""
        return wall_s if self.speed is None else self.speed.normalize(wall_s, lo, hi)

    def readings(self, lo: float, hi: float) -> List[float]:
        return [] if self.speed is None else self.speed.readings(lo, hi)

    def span(self, name: str):
        """A benchmark-side span on the traced pass, nothing otherwise."""
        return nullcontext() if self.tracer is None else self.tracer.span(name)


@dataclass
class Outcome:
    """What a workload body hands back to the runner."""

    #: end-to-end timings at reference host speed (``setup_s`` and
    #: ``peak_rss_mb`` are added by the runner)
    metrics: Dict[str, float]
    #: the same timings as read off the clock
    raw: Dict[str, float]
    #: pooled by the suite: one entry per sample of a per-sample metric
    samples: Dict[str, List[float]]
    counters: Dict[str, float]
    #: ``perf_counter`` intervals of the timed phases (coverage denominator)
    phases: List[Tuple[float, float]]
    #: host-speed readings (kernel CPU seconds) the timings were normalized with
    calibration: Dict[str, List[float]]
    #: W1/W2 traced pass: traced over untraced wall of the same steps, minus 1
    trace_overhead: Optional[float] = None


def _seeded(seed: int) -> random.Random:
    return random.Random(f"repro-bench-{seed}")


def _with_throughput(times: Dict[str, float], n_sims: int) -> Dict[str, float]:
    """``times`` plus ``jobs_per_s``: simulations completed per ``sweep_s``."""
    return {**times, "jobs_per_s": n_sims / times["sweep_s"]}


def _whole_phase(wall_s: float, n_sims: int, steps_each: int) -> Dict[str, float]:
    """The end-to-end timings of a workload that has one timed phase.

    Its pool or service workers converge one shared ground state and
    propagate ``n_sims * steps_each`` steps inside ``wall_s``, so the
    metrics the workload was not designed for read as that wall per
    ground state and per step: the same information as ``sweep_s``, and
    no cell noisier than it to set the metric's bound by.
    """
    times = {"scf_s": wall_s, "rt_step_s": wall_s / (n_sims * steps_each), "sweep_s": wall_s}
    return _with_throughput(times, n_sims)


# --------------------------------------------------------------------------
# W1 / W2: one hybrid simulation
# --------------------------------------------------------------------------

_SI8_HSE = {
    "system": {"cell": "silicon_cubic", "ecut": 3.0, "functional": "hse"},
    "field": {
        "kind": "gaussian_pulse",
        "params": {"amplitude": 0.02, "wavelength_nm": 380.0, "center_fs": 0.05, "fwhm_fs": 0.08},
    },
    "backend": {"name": "numpy", "count_ffts": True},
}


def si8_config(seed: int, dense: bool, n_steps: int) -> Dict[str, Any]:
    rng = _seeded(seed)
    cfg: Dict[str, Any] = {k: dict(v) for k, v in _SI8_HSE.items()}
    cfg["scf"] = {
        "nbands": 24,
        "temperature_k": 8000.0,
        "density_tol": 1e-5,
        "exchange_tol": 1e-4,
        "max_outer": 10,
        "seed": rng.randrange(1, 2**31),
    }
    if dense:
        cfg["propagation"] = {
            "propagator": "ptim",
            "dt_as": 50.0,
            "n_steps": n_steps,
            "record_energy": True,
            "options": {"density_tol": 1e-6, "fock_mode": "dense-diag"},
        }
        cfg["parallel"] = {"ranks": 2, "pattern": "ring"}
    else:
        cfg["propagation"] = {
            "propagator": "ptim_ace",
            "dt_as": 50.0,
            "n_steps": n_steps,
            "record_energy": False,
            "options": {"density_tol": 1e-6, "exchange_tol": 1e-6},
        }
    return cfg


def setup_si8(ctx: RunContext, dense: bool, config: Optional[Dict[str, Any]] = None):
    """Set-up: imports, config, Hamiltonian — "first unit of work can start"."""
    from repro.api import Simulation

    if config is None:
        config = si8_config(ctx.seed, dense, ctx.scaled(8 if dense else 10, minimum=2))
    sim = Simulation.from_config(config)
    sim.hamiltonian
    return sim


def _propagate_timed(sim):
    """``sim.propagate()`` plus the ``perf_counter`` start and end of every step."""
    clock = time.perf_counter
    marks = [clock()]
    result = sim.propagate(progress=lambda n, total: marks.append(clock()))
    # the first interval includes building the propagator and the t=0 observation
    return result, marks[:-1], marks[1:]


def _trace_overhead(ctx: RunContext, sim, starts: List[float], ends: List[float], stats) -> float:
    """Traced over untraced wall of the same steps, minus 1.

    The wrappers come off and the propagation runs again from the same
    ground state: identical work, seconds rather than a suite pass apart.
    """
    ctx.tracer.uninstall()
    replay = sim.derive()
    replay.hamiltonian
    result, re_starts, re_ends = _propagate_timed(replay)
    ctx.checks.check(
        [s.scf_iterations for s in result.record.stats[1:]] == [s.scf_iterations for s in stats],
        "the untraced replay did the traced run's work",
    )
    ratios = [
        ctx.at_reference(e - s, s, e) / ctx.at_reference(re_e - re_s, re_s, re_e)
        for s, e, re_s, re_e in zip(starts, ends, re_starts, re_ends)
    ]
    return statistics.median(ratios) - 1.0


def run_si8(ctx: RunContext, dense: bool, config: Optional[Dict[str, Any]] = None) -> Outcome:
    """Ground state, then the configured propagation, each on the clock.

    ``config`` replaces the seeded one (the self-test's capped smoke).
    """
    clock = time.perf_counter
    checks = ctx.checks
    sim = setup_si8(ctx, dense, config)
    n_steps = sim.config.propagation.n_steps

    t_scf = clock()
    gs = sim.ground_state()
    scf_end = clock()
    scf_wall = scf_end - t_scf
    result, starts, ends = _propagate_timed(sim)
    step_walls = [e - s for s, e in zip(starts, ends)]

    record = result.record
    stats = record.stats[1:]
    n_e = sim.hamiltonian.n_electrons
    grid = sim.grid
    final = result.final_state
    checks.check(gs.converged, "ground state converged")
    checks.check(len(step_walls) == n_steps, f"{n_steps} steps ran")
    checks.check(all(s.converged for s in stats), "every RT step converged")
    checks.check(
        max(abs(n - n_e) for n in record.particle_number) < PARTICLE_TOL,
        "particle number conserved at every sample",
    )
    overlap = grid.inner(final.phi, final.phi)
    checks.check(
        float(np.abs(overlap - np.eye(overlap.shape[0])).max()) < ORTHO_TOL,
        "final orbitals orthonormal",
    )
    checks.check(
        float(np.abs(final.sigma - final.sigma.conj().T).max()) < ORTHO_TOL,
        "final sigma Hermitian",
    )
    counters: Dict[str, float] = {}
    if dense:
        info = result.parallel
        ring_bytes = info.ledger.bytes_by_category()["sendrecv"] if info is not None else 0.0
        checks.check(info is not None and ring_bytes > 0, "parallel ledger carries ring bytes")
        checks.check(
            result.fft is not None and result.fft.transforms > 0, "FFT tally is non-empty"
        )
        ledger = sim.parallel.session_ledger()
        counters["parallel.comm.bytes"] = sum(ledger.bytes_by_category().values())
        counters["parallel.comm.modeled_s"] = ledger.total_seconds()
        checks.check(
            all(np.isfinite(e) for e in record.energy), "energy recorded at every sample"
        )

    fft = sim.fft_counters()
    counters["backend.fft.transforms"] = fft.transforms
    counters["backend.fft.batched_calls"] = fft.calls
    counters["scf.iterations"] = gs.scf_iterations
    counters["rt.inner_iterations_per_step"] = statistics.fmean(s.scf_iterations for s in stats)
    counters["rt.outer_iterations_per_step"] = statistics.fmean(s.outer_iterations for s in stats)
    counters["rt.fock_applications_per_step"] = statistics.fmean(s.fock_applications for s in stats)
    counters["rt.ace_builds_per_step"] = statistics.fmean(s.ace_builds for s in stats)

    def timings(scf_s: float, steps_s: List[float]) -> Dict[str, float]:
        # a sweep of one: the ground state plus all its steps
        times = {"scf_s": scf_s, "rt_step_s": statistics.median(steps_s)}
        return _with_throughput({**times, "sweep_s": scf_s + sum(steps_s)}, 1)

    # each step against the host speed read while it ran
    steps = [ctx.at_reference(e - s, s, e) for s, e in zip(starts, ends)]
    raw = timings(scf_wall, step_walls)
    metrics = timings(ctx.at_reference(scf_wall, t_scf, scf_end), steps)
    samples = {"rt_step_s": steps, "rt_step_raw_s": step_walls}
    calibration = {"scf": ctx.readings(t_scf, scf_end), "rt": ctx.readings(starts[0], ends[-1])}
    phases = [(t_scf, scf_end), *zip(starts, ends)]
    overhead = None if ctx.tracer is None else _trace_overhead(ctx, sim, starts, ends, stats)
    return Outcome(metrics, raw, samples, counters, phases, calibration, overhead)


# --------------------------------------------------------------------------
# W3: a resumable sweep
# --------------------------------------------------------------------------

SWEEP_STEPS = 6


def _kicks(seed: int, n: int) -> List[float]:
    shift = _seeded(seed).uniform(0.0, 1e-5)
    return [1e-3 + 1e-4 * i + shift for i in range(n)]


def setup_sweep(ctx: RunContext):
    """Set-up: imports, sweep expansion, store creation."""
    from repro.api import SimulationConfig
    from repro.api.config import SweepConfig
    from repro.api.ensemble import expand_sweep
    from repro.store import ResultStore

    base = SimulationConfig.from_dict(
        {
            "system": {
                "cell": "silicon_supercell",
                "cell_params": {"reps": [2, 1, 1]},
                "ecut": 2.0,
                "functional": "lda",
            },
            "scf": {
                "nbands": 40,
                "temperature_k": 8000.0,
                "density_tol": 1e-6,
                "seed": _seeded(ctx.seed).randrange(1, 2**31),
            },
            "field": {"kind": "static_kick", "params": {"kick": 1e-3}},
            "propagation": {
                "propagator": "ptim",
                "dt_as": 25.0,
                "n_steps": SWEEP_STEPS,
                "options": {"density_tol": 1e-8},
            },
            "backend": {"name": "numpy", "count_ffts": True},
        }
    )
    kicks = _kicks(ctx.seed, ctx.scaled(6, minimum=2))
    sweep = SweepConfig.from_dict({"axes": {"field.params.kick": kicks}})
    variants = expand_sweep(base, sweep)
    store = ResultStore(ctx.scratch / "sweep-store")
    return base, sweep, variants, store


def _tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def run_sweep(ctx: RunContext) -> Outcome:
    from repro.api.ensemble import run_ensemble

    clock = time.perf_counter
    checks = ctx.checks
    base, sweep, variants, store = setup_sweep(ctx)
    n = len(variants)
    # pool children do not carry the wrappers, so the traced pass runs
    # the serial scheduler in this process: layer numbers only
    workers = 1 if ctx.tracer is not None else MAX_PROCS
    try:
        t0 = clock()
        with ctx.span("api.ensemble.run"):
            first = run_ensemble(base, sweep, workers=workers, store=store)
        sweep_wall = clock() - t0

        resumed_lines: List[str] = []
        t1 = clock()
        with ctx.span("api.ensemble.resume"):
            second = run_ensemble(
                base, sweep, workers=workers, store=store, progress=resumed_lines.append
            )
        resume_wall = clock() - t1

        checks.check(
            len(first.runs) == n and all(r.ok for r in first.runs), f"{n} sweep runs ok"
        )
        rows = store.query()
        checks.check(
            len(rows) == n and all(r.status == "ok" for r in rows), f"{n} ok rows in the store"
        )
        gs_blobs = len(store.blobs.ground_state_addresses())
        checks.check(gs_blobs == 1, "exactly one ground-state blob")
        restored = sum("restored from store" in line and line.startswith("run ") for line in resumed_lines)
        checks.check(restored == n, f"second call restores all {n}")
        same = all(
            a.arrays.keys() == b.arrays.keys()
            and all(np.array_equal(a.arrays[k], b.arrays[k]) for k in a.arrays)
            for a, b in zip(first.runs, second.runs)
        )
        checks.check(same, "restored observables identical")
        n_e = 64.0  # 16 silicon atoms, 4 valence electrons each
        checks.check(
            all(
                r.ok and float(np.abs(r.arrays["particle_number"] - n_e).max()) < PARTICLE_TOL
                for r in first.runs
            ),
            "particle number conserved in every run",
        )
        store_bytes = _tree_bytes(store.root)
    finally:
        store.close()

    if checks.failed:
        # a failed run has no elapsed and the sweep no meaningful wall
        raise RuntimeError(f"si16-lda-sweep: {'; '.join(checks.failures)}")
    elapsed = [r.elapsed for r in first.runs]

    fft = first.fft_totals().totals
    counters = {
        "backend.fft.transforms": fft.transforms if fft is not None else 0,
        "backend.fft.batched_calls": fft.calls if fft is not None else 0,
        "api.ensemble.run_elapsed_s_p50": statistics.median(elapsed),
        "api.ensemble.restored": restored,
        "store.bytes_on_disk": store_bytes,
        "store.gs_blobs": gs_blobs,
    }
    window = (t0, t0 + sweep_wall)
    raw = {**_whole_phase(sweep_wall, n, SWEEP_STEPS), "resume_s": resume_wall}
    metrics = _whole_phase(ctx.at_reference(sweep_wall, *window), n, SWEEP_STEPS)
    phases = [window, (t1, t1 + resume_wall)]
    return Outcome(metrics, raw, {}, counters, phases, {"sweep": ctx.readings(*window)})


# --------------------------------------------------------------------------
# W4: a served burst
# --------------------------------------------------------------------------

SERVE_STEPS = 10

#: a burst that has not drained by then is a failed run (contract: 180 s per run)
DRAIN_TIMEOUT_S = 150.0


def serve_configs(ctx: RunContext):
    from repro.api import SimulationConfig
    from repro.api.ensemble import apply_overrides

    base = SimulationConfig.from_dict(
        {
            "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "lda"},
            "scf": {
                "nbands": 20,
                "temperature_k": 8000.0,
                "density_tol": 1e-6,
                "seed": _seeded(ctx.seed).randrange(1, 2**31),
            },
            "field": {"kind": "static_kick", "params": {"kick": 1e-3}},
            "propagation": {"propagator": "ptim", "dt_as": 25.0, "n_steps": SERVE_STEPS},
            "backend": {"name": "numpy", "count_ffts": True},
        }
    )
    kicks = _kicks(ctx.seed, ctx.scaled(12, minimum=4))
    return [apply_overrides(base, {"field.params.kick": k}) for k in kicks]


def start_service(ctx: RunContext):
    """Set-up: imports, ``JobService.start()``, first ``/healthz`` answer."""
    from repro.serve import JobService, ServeClient

    service = JobService(ctx.scratch / "serve-store", port=0, workers=MAX_PROCS, backoff=0.2)
    service.start()
    try:
        client = ServeClient(service.url)
        client.healthz()
    except BaseException:
        service.stop()
        raise
    return service, client


def _post_all(client, configs, checks: Checks, what: str):
    """POST every config back-to-back; returns (jobs, per-post seconds)."""
    from repro.serve.client import ServeError

    jobs, latencies = [], []
    for config in configs:
        t = time.perf_counter()
        try:
            job = client.submit(config)
        except ServeError as exc:
            checks.check(False, f"{what}: {exc}")
            continue
        latencies.append(time.perf_counter() - t)
        jobs.append(job)
    checks.check(len(jobs) == len(configs), f"{what}: every POST accepted")
    return jobs, latencies


def run_serve(ctx: RunContext) -> Outcome:
    from repro.api.simulation import SimulationResult

    clock = time.perf_counter
    checks = ctx.checks
    configs = serve_configs(ctx)
    n = len(configs)
    t_service = time.time()
    service, client = start_service(ctx)
    try:
        phase_start = clock()
        t_post = time.time()
        jobs, submit_s = _post_all(client, configs, checks, "burst")
        ids = [j["job_id"] for j in jobs]
        # closed loop, one connection: poll until every job is terminal
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        rows: Dict[str, Dict[str, Any]] = {}
        while time.monotonic() < deadline:
            rows = {j["job_id"]: j for j in client.jobs() if j["job_id"] in ids}
            if len(rows) == len(ids) and all(
                j["status"] in ("ok", "error", "cancelled") for j in rows.values()
            ):
                break
            time.sleep(0.1)
        drained = clock()
        done = [rows[i] for i in ids if i in rows and rows[i]["status"] == "ok"]
        checks.check(len(done) == n, f"all {n} jobs ok")
        checks.check(all(j["attempts"] == 1 for j in done), "every job took one attempt")
        stats = client.stats()
        gs_blobs = int(stats["ground_state_blobs"])
        checks.check(gs_blobs == 1, "exactly one ground-state blob")

        hits, hit_s = _post_all(client, configs, checks, "cache-hit")
        checks.check(
            [j["job_id"] for j in hits] == ids and all(j["status"] == "ok" for j in hits),
            "re-posts return the same ids, already ok",
        )
        fetched = 0
        for job_id, config in zip(ids, configs):
            path = ctx.scratch / "fetched" / f"{job_id}.npz"
            try:
                client.fetch(job_id, path)
                SimulationResult.load_npz(path, expected_config=config)
                fetched += 1
            except ValueError as exc:  # ServeError, ConfigError, ResultError
                checks.check(False, f"fetch {job_id}: {exc}")
        checks.check(fetched == n, f"all {n} results fetched and loaded with their config")
        phase_end = clock()
        store_bytes = _tree_bytes(service.store.root)
    finally:
        service.stop()

    if len(done) != n:
        # the burst's end is the last job turning ok: undefined if one did not
        raise RuntimeError(f"serve-burst: {'; '.join(checks.failures)}")
    burst_wall = max(j["finished"] for j in done) - t_post
    by_start = sorted(done, key=lambda j: j["started"])
    execs = [j["finished"] - j["started"] for j in by_start]
    # the first job on each worker converges, or waits for, the shared SCF
    exec_first = statistics.median(execs[:MAX_PROCS])

    counters = {
        "store.bytes_on_disk": store_bytes,
        "store.gs_blobs": gs_blobs,
        "serve.first_claim_s": by_start[0]["started"] - t_service,
        "serve.queue_wait_s_p50": statistics.median(j["started"] - j["created"] for j in done),
        "serve.job_exec_s_p50": statistics.median(execs),
        "serve.job_exec_first_s": exec_first,
        "serve.submit_ms_p50": 1e3 * statistics.median(submit_s),
        "serve.hit_submit_ms_p50": 1e3 * statistics.median(hit_s) if hit_s else 0.0,
        "serve.attempts_total": sum(j["attempts"] for j in done),
    }
    window = (phase_start, drained)
    raw = _whole_phase(burst_wall, n, SERVE_STEPS)
    metrics = _whole_phase(ctx.at_reference(burst_wall, *window), n, SERVE_STEPS)
    phases = [(phase_start, phase_end)]
    return Outcome(metrics, raw, {}, counters, phases, {"burst": ctx.readings(*window)})


# --------------------------------------------------------------------------
# dispatch
# --------------------------------------------------------------------------

#: workload name -> timed body
BODIES: Dict[str, Callable[[RunContext], Outcome]] = {
    "si8-hse-ace": lambda ctx: run_si8(ctx, dense=False),
    "si8-hse-dense-r2": lambda ctx: run_si8(ctx, dense=True),
    "si16-lda-sweep": run_sweep,
    "serve-burst": run_serve,
}


def run_setup(name: str, ctx: RunContext) -> float:
    """The set-up of workload ``name`` alone — what ``setup_s`` times.

    Returns ``time.time()`` at the moment the first unit of work could
    start; tear-down happens after that reading.
    """
    if name in ("si8-hse-ace", "si8-hse-dense-r2"):
        setup_si8(ctx, dense=name.endswith("r2"))
        return time.time()
    if name == "si16-lda-sweep":
        store = setup_sweep(ctx)[3]
        ready = time.time()
        store.close()
        return ready
    if name == "serve-burst":
        service, _ = start_service(ctx)
        ready = time.time()
        service.stop()
        return ready
    raise KeyError(name)
