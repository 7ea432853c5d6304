"""The names this benchmark fixes: workloads, metrics, spans, counters.

Every later performance claim in the repository is "metric X on
workload Y" in these names, so they live in one table that the runner,
the tracer, ``--selftest`` and ``BENCHMARK.json`` all read.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple


class Workload(NamedTuple):
    name: str
    why: str


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "si8-hse-ace",
        "The paper's headline PT-IM-ACE step: ~65 inner iterations per step put mixer, "
        "ACE apply, density build and Hartree/XC on the clock; dense Fock runs only in ACE builds.",
    ),
    Workload(
        "si8-hse-dense-r2",
        "Dense Fock every inner iteration through DistributedFockExchange and SimComm on 2 "
        "ranks, energy recorded each step; ACE apply idle. The workload real ranks must speed up.",
    ),
    Workload(
        "si16-lda-sweep",
        "Six-kick LDA sweep on a pool plus its resume: Davidson, nonlocal projectors, "
        "Hartree/XC, scheduler and store writes/reads; Fock, ACE and parallel do zero work.",
    ),
    Workload(
        "serve-burst",
        "Twelve LDA jobs through JobService over HTTP, then cache-hit re-posts and fetches: "
        "queue transactions, worker spawn, lease wait and store dominate; physics barely matters.",
    ),
)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(w.name for w in WORKLOADS)

#: the workloads on which ``rt_step_s`` times a propagation step directly
RT_WORKLOADS: Tuple[str, ...] = ("si8-hse-ace", "si8-hse-dense-r2")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: share of the parent's median by which the metric may worsen
    bound: float


#: timings: three times the same-code spread (distance between quartiles
#: over median, ten seeds) the widest cells show on the reference host,
#: 5 %; memory: the program's own peak on si8-hse-ace is two-valued, 7 %
#: apart; set-up, a 0.5-1 s reading dominated by interpreter start and
#: imports, gets the largest bound the contract allows
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("scf_s", "s", "lower", 0.15),
    Metric("rt_step_s", "s", "lower", 0.15),
    Metric("sweep_s", "s", "lower", 0.15),
    Metric("jobs_per_s", "1/s", "higher", 0.15),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)


class SpanTarget(NamedTuple):
    """One public callable of ``repro`` recorded under a span name."""

    span: str
    module: str
    #: ``Class.method`` or a module-level function name
    qualname: str


def _methods(span: str, module: str, cls: str, *names: str) -> List[SpanTarget]:
    return [SpanTarget(span, module, f"{cls}.{n}") for n in names]


SPAN_TARGETS: Tuple[SpanTarget, ...] = (
    *_methods("backend.fft", "repro.backend.base", "Backend", "forward", "backward"),
    SpanTarget("grid.inner", "repro.grid.fftgrid", "PlaneWaveGrid.inner"),
    SpanTarget("hamiltonian.init", "repro.hamiltonian.hamiltonian", "Hamiltonian.__init__"),
    SpanTarget("hamiltonian.apply", "repro.hamiltonian.hamiltonian", "Hamiltonian.apply"),
    SpanTarget(
        "hamiltonian.update_density", "repro.hamiltonian.hamiltonian", "Hamiltonian.update_density"
    ),
    SpanTarget("hamiltonian.build_ace", "repro.hamiltonian.hamiltonian", "Hamiltonian.build_ace"),
    SpanTarget(
        "hamiltonian.fock.apply_diag", "repro.hamiltonian.fock", "FockExchangeOperator.apply_diag"
    ),
    SpanTarget(
        "hamiltonian.fock.exchange_energy",
        "repro.hamiltonian.fock",
        "FockExchangeOperator.exchange_energy",
    ),
    SpanTarget("hamiltonian.ace.apply", "repro.hamiltonian.ace", "ACEOperator.apply"),
    SpanTarget("hamiltonian.kinetic.apply_g", "repro.hamiltonian.kinetic", "KineticOperator.apply_g"),
    SpanTarget("pseudo.nonlocal.init", "repro.pseudo.nonlocal_", "NonlocalPseudopotential.__init__"),
    SpanTarget(
        "pseudo.nonlocal.apply_g", "repro.pseudo.nonlocal_", "NonlocalPseudopotential.apply_g"
    ),
    SpanTarget("hartree.potential", "repro.hartree.poisson", "hartree_potential"),
    SpanTarget("xc.semilocal", "repro.xc.hybrid", "SemilocalFunctional.semilocal"),
    SpanTarget("xc.semilocal", "repro.xc.hybrid", "HybridFunctional.semilocal"),
    SpanTarget("occupation.density_diag", "repro.occupation.sigma", "density_from_orbitals_diag"),
    SpanTarget("occupation.diagonalize_sigma", "repro.occupation.sigma", "diagonalize_sigma"),
    SpanTarget("occupation.rotate_orbitals", "repro.occupation.sigma", "rotate_orbitals"),
    SpanTarget("occupation.fermi", "repro.occupation.fermi", "fermi_occupations"),
    SpanTarget("scf.run_scf", "repro.scf.groundstate", "run_scf"),
    SpanTarget("scf.davidson", "repro.scf.eigensolver", "davidson"),
    SpanTarget("scf.anderson_mix", "repro.scf.mixing", "AndersonMixer.mix"),
    SpanTarget("scf.kerker_mix", "repro.scf.mixing", "KerkerMixer.mix"),
    SpanTarget("scf.lowdin", "repro.scf.eigensolver", "lowdin_orthonormalize"),
    SpanTarget("rt.step", "repro.rt.ptim", "PTIMPropagator.step"),
    SpanTarget("rt.step", "repro.rt.ptim_ace", "PTIMACEPropagator.step"),
    SpanTarget("rt.observe", "repro.rt.propagator", "PropagatorBase.observe"),
    SpanTarget("observables.energy", "repro.observables.energy", "td_total_energy"),
    SpanTarget("observables.dipole", "repro.observables.dipole", "dipole_moment"),
    SpanTarget(
        "parallel.distfock.apply_diag", "repro.parallel.distfock", "DistributedFockExchange.apply_diag"
    ),
    *_methods(
        "parallel.comm",
        "repro.parallel.comm",
        "SimComm",
        "bcast",
        "ring_shift",
        "ring_shift_async",
        "allreduce_sum",
        "allgatherv",
        "charge_allreduce",
        "charge_allgatherv",
        "alltoallv_blocks",
    ),
    # add_result delegates to add_run, the entry every writer shares
    # (run_ensemble calls it directly), so the span sits there
    SpanTarget("store.add_result", "repro.store.store", "ResultStore.add_run"),
    SpanTarget("store.put_ground_state", "repro.store.store", "ResultStore.put_ground_state"),
    SpanTarget("store.load_result", "repro.store.store", "ResultStore.load_result"),
    SpanTarget("store.find_completed", "repro.store.store", "ResultStore.find_completed"),
    SpanTarget("serve.service.submit", "repro.serve.service", "JobService.submit"),
    SpanTarget("serve.queue.submit", "repro.serve.queue", "JobQueue.submit"),
    SpanTarget("serve.http.post_jobs", "repro.serve.client", "ServeClient.submit"),
    SpanTarget("serve.http.fetch", "repro.serve.client", "ServeClient.fetch"),
)

#: spans the benchmark records itself, around its two ``run_ensemble`` calls
BENCH_SPANS: Tuple[str, ...] = ("api.ensemble.run", "api.ensemble.resume")

#: packages whose modules must be loaded before wrapping, so every
#: ``from x import f`` alias already exists to be patched
TRACED_PACKAGES: Tuple[str, ...] = (
    "repro.api",
    "repro.api.ensemble",
    "repro.store",
    "repro.serve",
    "repro.parallel",
)


def span_names() -> List[str]:
    """Every span name once, in table order."""
    seen: Dict[str, None] = {}
    for target in SPAN_TARGETS:
        seen.setdefault(target.span)
    for name in BENCH_SPANS:
        seen.setdefault(name)
    return list(seen)


#: counters read off result objects and job rows: (name, unit, better).
#: ``~`` in the README marks the ones that are wall-clock readings and
#: so do not repeat exactly between two runs.
COUNTERS: Tuple[Tuple[str, str, str], ...] = (
    ("backend.fft.transforms", "count", "lower"),
    ("backend.fft.batched_calls", "count", "lower"),
    ("scf.iterations", "count", "lower"),
    ("rt.inner_iterations_per_step", "count", "lower"),
    ("rt.outer_iterations_per_step", "count", "lower"),
    ("rt.fock_applications_per_step", "count", "lower"),
    ("rt.ace_builds_per_step", "count", "lower"),
    ("parallel.comm.bytes", "B", "lower"),
    ("parallel.comm.modeled_s", "s", "lower"),
    ("api.ensemble.run_elapsed_s_p50", "s", "lower"),
    ("api.ensemble.restored", "count", "higher"),
    ("store.bytes_on_disk", "B", "lower"),
    ("store.gs_blobs", "count", "lower"),
    ("serve.first_claim_s", "s", "lower"),
    ("serve.queue_wait_s_p50", "s", "lower"),
    ("serve.job_exec_s_p50", "s", "lower"),
    ("serve.job_exec_first_s", "s", "lower"),
    ("serve.submit_ms_p50", "ms", "lower"),
    ("serve.hit_submit_ms_p50", "ms", "lower"),
    ("serve.attempts_total", "count", "lower"),
)

TRACE_QUALITY: Tuple[Tuple[str, str, str], ...] = (
    ("trace_coverage_frac", "frac", "higher"),
    ("trace_overhead_frac", "frac", "lower"),
)

#: what ``--traced`` must show on the RT workloads (medians over runs)
MIN_TRACE_COVERAGE = 0.95
MAX_TRACE_OVERHEAD = 0.05


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """``(name, unit, better)`` of every per-layer metric a traced run prints."""
    out: List[Tuple[str, str, str]] = []
    for span in span_names():
        out.append((f"{span}.self_s", "s", "lower"))
        out.append((f"{span}.calls", "count", "lower"))
    out.extend(COUNTERS)
    out.extend(TRACE_QUALITY)
    return out


def benchmark_json(command: List[str], paths: List[str], run_seconds: int) -> Dict[str, object]:
    """The contract file, generated from this table (``--selftest`` compares)."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_metrics()
        ],
    }
