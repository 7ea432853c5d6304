"""Command-line front end: ``python -m repro <command>`` (or ``repro``).

Commands
--------
``run CONFIG``
    Converge the ground state and run the configured propagation from a
    ``.toml``/``.json`` config file; optionally save results/checkpoint.
    Unless ``--quiet`` or reused from the store, it ends with where the
    run's seconds went: the spans of :mod:`repro.trace` under the root
    span ``api.run``, one row each.
``resume NPZ``
    Continue the trajectory a result file ends in for more steps: a
    checkpoint (carries the ground state) or any ``--output`` /
    ``jobs fetch`` file; ends with the same split.
``sweep CONFIG``
    Expand a config with a ``[sweep]`` section into a run grid and
    execute it (``--workers N``: N processes drain the store's job
    queue, this one and N - 1 spawned workers), or list the grid with
    ``--dry-run``; ``--store DIR`` keeps the runs, and re-running
    against it restores them.
``validate CONFIG``
    Parse + validate a config and print its normalized JSON (including
    the ``[sweep] store`` target / ``--store`` path when given).
``serve CONFIG``
    Run the long-lived job service over a result store: durable queue,
    process worker pool, HTTP/JSON API (see :mod:`repro.serve`).
``submit CONFIG``
    Submit a config (or its ``[sweep]`` expansion) to a running server.
``jobs ls|show|fetch|watch|cancel TARGET``
    Read the runs of a result-store directory or a running server's URL
    alike: list (filterable), show one with its attempts, copy out its
    result ``.npz``; ``watch`` and ``cancel`` act on a server's jobs.
``components``
    List every cell / functional / field / propagator a config can name.
``perf``
    Print the paper-evaluation performance projection report, through
    the same table formatter (:mod:`repro.perf.experiments`).

Exit codes
----------
0
    Success: the run/sweep/query completed.
1
    The command ran but the outcome is a failure: failed sweep
    variants, failed submitted/watched jobs.
2
    Usage error: bad flags, unparseable or invalid config (an unknown
    component name among them), unreadable store paths.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from repro.api.simulation import Simulation


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Config-driven hybrid-functional rt-TDDFT simulations (PT-IM-ACE).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run SCF + propagation from a config file")
    run.add_argument("config", help="path to a .toml or .json simulation config")
    run.add_argument("--steps", type=int, default=None, help="override propagation.n_steps")
    run.add_argument(
        "--fft-workers", type=int, default=None, metavar="N",
        help="override backend.fft_workers (transform threads; changes no bits)",
    )
    run.add_argument(
        "--ranks", type=int, default=None, metavar="P",
        help="run band-parallel over P simulated ranks (overrides parallel.ranks)",
    )
    run.add_argument(
        "--pattern", default=None, metavar="NAME",
        help="Fock-exchange communication schedule: bcast, ring, async-ring "
             "(overrides parallel.pattern)",
    )
    run.add_argument(
        "--machine", default=None, metavar="NAME",
        help="hardware cost model for the ledger (fugaku-arm, a100-gpu; "
             "overrides parallel.machine)",
    )
    run.add_argument("--output", default=None, metavar="NPZ", help="save observables + config")
    run.add_argument("--checkpoint", default=None, metavar="NPZ", help="save a restart checkpoint")
    run.add_argument(
        "--store", default=None, metavar="DIR",
        help="append the finished run to a result store (created if missing; "
             "a cached group ground state in the store skips the SCF, and an "
             "identical completed run is reused outright)",
    )
    run.add_argument(
        "--rerun", action="store_true",
        help="recompute even when the store already holds a completed run "
             "for this exact config",
    )
    run.add_argument("--quiet", action="store_true", help="suppress the observable table")

    resume = sub.add_parser("resume", help="continue the trajectory a result file ends in")
    resume.add_argument(
        "result_file", metavar="NPZ",
        help="checkpoint, --output or jobs-fetch .npz of a previous run",
    )
    resume.add_argument("--steps", type=int, default=None, help="override propagation.n_steps")
    resume.add_argument("--output", default=None, metavar="NPZ", help="save observables + config")
    resume.add_argument("--checkpoint", default=None, metavar="NPZ", help="save a new checkpoint")
    resume.add_argument("--quiet", action="store_true", help="suppress the observable table")

    sweep = sub.add_parser("sweep", help="expand and run a config sweep ([sweep] section)")
    sweep.add_argument("config", help="path to a .toml or .json config with a [sweep] section")
    sweep.add_argument("--workers", type=int, default=None, help="override sweep.workers")
    sweep.add_argument(
        "--dry-run", action="store_true", help="list the expanded run grid and exit"
    )
    sweep.add_argument(
        "--store", default=None, metavar="DIR",
        help="append runs to a result store and resume from it: completed "
             "variants are restored, interrupted/failed ones re-run "
             "(default: sweep.store from the config)",
    )
    sweep.add_argument("--quiet", action="store_true", help="suppress per-run progress lines")

    validate = sub.add_parser("validate", help="check a config file and print it normalized")
    validate.add_argument("config", help="path to a .toml or .json simulation config")
    validate.add_argument(
        "--store", default=None, metavar="DIR",
        help="also validate this result-store path (overrides sweep.store)",
    )

    serve = sub.add_parser(
        "serve", help="run the job service (durable queue + worker pool + HTTP API)"
    )
    serve.add_argument(
        "config",
        help="config file; its [serve] section sets host/port/workers/"
             "timeout/retries/store, all overridable by flags",
    )
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="result-store directory (overrides serve.store)")
    serve.add_argument("--host", default=None, help="bind address (overrides serve.host)")
    serve.add_argument("--port", type=int, default=None,
                       help="bind port, 0 for ephemeral (overrides serve.port)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker process count (overrides serve.workers)")
    serve.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-job wall-clock budget in seconds, 0 = none "
                            "(overrides serve.timeout)")
    serve.add_argument("--retries", type=int, default=None, metavar="N",
                       help="attempts per job before it lands in error "
                            "(overrides serve.retries)")
    serve.add_argument("--quiet", action="store_true",
                       help="suppress per-request log lines")

    submit = sub.add_parser("submit", help="submit a config to a running job server")
    submit.add_argument(
        "config",
        help="config file; a [sweep] section submits every expanded variant",
    )
    submit.add_argument("--url", default="http://127.0.0.1:8752",
                        help="job-server address (default %(default)s)")
    submit.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-job wall-clock budget (server default otherwise)")
    submit.add_argument("--retries", type=int, default=None, metavar="N",
                        help="attempts per job (server default otherwise)")
    submit.add_argument("--wait", action="store_true",
                        help="block until every submitted job is terminal; "
                             "exit nonzero when any failed")

    jobs = sub.add_parser(
        "jobs", help="read the runs of a result-store directory or a running job server"
    )
    jsub = jobs.add_subparsers(dest="jobs_command", required=True)

    def jobs_verb(name: str, help: str) -> argparse.ArgumentParser:
        verb = jsub.add_parser(name, help=help)
        verb.add_argument(
            "target", metavar="TARGET",
            help="result-store directory, or job-server URL (http://HOST:PORT)",
        )
        return verb

    jobs_ls = jobs_verb("ls", "list runs (filterable)")
    jobs_ls.add_argument(
        "--status", default=None, metavar="STATE",
        help="only runs in this state (queued, running, ok, error or cancelled)",
    )
    jobs_ls.add_argument(
        "--where", action="append", default=[], metavar="KEY=VALUE",
        help="dotted config-key filter, e.g. field.params.kick=0.002 (repeatable)",
    )
    jobs_ls.add_argument(
        "--since", default=None, metavar="WHEN",
        help="only runs created at/after WHEN (ISO date or unix timestamp)",
    )
    jobs_ls.add_argument(
        "--until", default=None, metavar="WHEN",
        help="only runs created at/before WHEN (ISO date or unix timestamp; "
             "a plain date covers through the end of that day)",
    )
    jobs_ls.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="show at most N runs (creation order)",
    )
    jobs_ls.add_argument(
        "--offset", type=int, default=0, metavar="N",
        help="skip the first N matching runs (paging with --limit)",
    )
    jobs_show = jobs_verb("show", "one run: its row, attempt history and result summary")
    jobs_show.add_argument("run_id", help="run id (see: repro jobs ls)")
    jobs_show.add_argument(
        "--config", action="store_true", help="also print the run's full config JSON"
    )
    jobs_fetch = jobs_verb("fetch", "copy a finished run's result .npz to a path")
    jobs_fetch.add_argument("run_id", help="run id (see: repro jobs ls)")
    jobs_fetch.add_argument("output", metavar="NPZ", help="output path")
    jobs_watch = jobs_verb(
        "watch", "poll one job (or the whole queue) on a server until it settles"
    )
    jobs_watch.add_argument("job_id", nargs="?", default=None,
                            help="job to watch (default: until the queue drains)")
    jobs_watch.add_argument("--timeout", type=float, default=3600.0, metavar="S",
                            help="give up after S seconds (default %(default)s)")
    jobs_cancel = jobs_verb("cancel", "cancel a queued or running job on a server")
    jobs_cancel.add_argument("job_id")

    sub.add_parser("components", help="list the cells/functionals/fields/propagators a config names")

    perf = sub.add_parser("perf", help="print the performance-model projection report")
    perf.add_argument(
        "--machine", default=None, metavar="NAME",
        help="restrict the report to one platform (fugaku-arm, a100-gpu)",
    )
    return parser


def _finish(sim: Simulation, result, args, mark=None) -> None:
    """Print the run's results; ``mark``, the span snapshot taken before
    the run (``None`` when nothing was computed), also prints its split."""
    if not args.quiet:
        print(result.summary())
        if result.fft is not None:
            print(
                f"FFTs: {result.fft.transforms} transforms in "
                f"{result.fft.calls} calls ({sim.backend.describe()})"
            )
        info = result.parallel
        if info is not None:
            # the run's own accounting (its propagation window, as stored,
            # so a reused run prints what its first run printed), rendered
            # with the same formatter as the analytic Table I
            from repro.perf.experiments import format_table1, measured_table1

            par = result.config.parallel
            table = measured_table1(
                {par.pattern: info.ledger},
                par.machine,
                sim.cell.natom,
                par.ranks,
                fft={par.pattern: result.fft},
            )
            print("measured communication breakdown (modeled seconds, executed schedules)")
            print(format_table1(table))
        if mark is not None:
            from repro.perf.experiments import format_split
            from repro.trace import recorder

            print(format_split(recorder().since(mark).spans))
    if args.output:
        path = result.save_npz(args.output)
        print(f"observables saved to {path}")
    if args.checkpoint:
        path = sim.save_checkpoint(args.checkpoint)
        print(f"checkpoint saved to {path}")


def _cmd_run(args) -> int:
    from repro.api.config import ConfigError, load_sweep_file, overridden
    from repro.api.runs import run_one
    from repro.api.simulation import Simulation
    from repro.store.common import run_id_for
    from repro.trace import recorder

    base, sweep = load_sweep_file(args.config)
    if sweep.axes:
        # even a single-point axis must not be silently dropped
        raise ConfigError(
            f"{args.config} defines a sweep of {sweep.n_runs} run(s); "
            f"execute it with: repro sweep {args.config}"
        )
    # each flag is refused by its key's declaration, as a parsed value is
    base = base.replace(
        propagation=overridden(base.propagation, n_steps=args.steps),
        backend=overridden(base.backend, fft_workers=args.fft_workers),
    )
    par_flags = {"ranks": args.ranks, "pattern": args.pattern, "machine": args.machine}
    if any(value is not None for value in par_flags.values()):
        # an explicit parallel flag opts into the distributed path even
        # at one rank (parity smokes); ranks > 1 would activate anyway
        base = base.replace(parallel=overridden(base.parallel, enabled=True, **par_flags))
    sim = Simulation(base)
    cfg = sim.config
    store = None
    if args.store:
        from repro.store import ResultStore

        store = ResultStore.ensure(args.store)
    if not args.quiet:
        print(
            f"system: {cfg.system.cell} | ecut {cfg.system.ecut} Ha | "
            f"functional {cfg.system.functional} | field {cfg.field.kind}"
        )
        if cfg.parallel.active:
            shm = "on" if cfg.parallel.use_shm else "off"
            print(
                f"parallel: {cfg.parallel.ranks} ranks | pattern "
                f"{cfg.parallel.pattern} | machine {cfg.parallel.machine} | shm {shm}"
            )

    def _propagation_starts(step: int, n_steps: int) -> None:
        if step == 0 and not args.quiet:
            gs = sim.ground_state()
            print(
                f"ground state ({cfg.scf.temperature_k:.0f} K): converged={gs.converged}  "
                f"E = {gs.total_energy:.6f} Ha  mu = {gs.fermi_level:.4f} Ha  "
                f"({gs.scf_iterations} SCF iterations)"
            )
            print(
                f"propagating {n_steps} x {cfg.propagation.dt_as:g} as with "
                f"{cfg.propagation.propagator} ..."
            )

    mark = recorder().snapshot()
    result, reused = run_one(sim, store, _propagation_starts, reuse=not args.rerun)
    if reused:
        # idempotent by content: the store already holds this exact
        # config's completed run — reused instead of appending a
        # recomputed copy of the same trajectory
        print(
            f"run {run_id_for(cfg)} reused from {store.root} "
            f"(identical config already completed; --rerun to recompute)"
        )
        sim = Simulation(cfg, ground_state=result.ground_state, state=result.final_state)
    elif store is not None:
        print(f"run {run_id_for(cfg)} stored in {store.root}")
    _finish(sim, result, args, None if reused else mark)
    return 0


def _cmd_resume(args) -> int:
    from repro.api.simulation import Simulation
    from repro.trace import recorder, span

    sim = Simulation.resume(args.result_file)
    cfg = sim.config
    if not args.quiet:
        n = args.steps if args.steps is not None else cfg.propagation.n_steps
        print(
            f"resuming at t = {sim.state.time:.3f} a.u.; propagating {n} more "
            f"x {cfg.propagation.dt_as:g} as with {cfg.propagation.propagator} ..."
        )
    mark = recorder().snapshot()
    with span("api.run"):
        result = sim.propagate(n_steps=args.steps)
    _finish(sim, result, args, mark)
    return 0


def _cmd_sweep(args) -> int:
    from repro.api.config import load_sweep_file, overridden
    from repro.api.ensemble import expand_sweep, run_ensemble

    base, sweep = load_sweep_file(args.config)
    sweep = overridden(sweep, workers=args.workers)  # refused as sweep.workers
    variants = expand_sweep(base, sweep)

    if args.dry_run or not args.quiet:
        print(
            f"sweep: {len(variants)} runs "
            f"({' x '.join(f'{k}[{len(v)}]' for k, v in sweep.axes.items()) or 'base only'}, "
            f"mode {sweep.mode}) | workers {sweep.workers} "
            f"(this process + {sweep.workers - 1} spawned)"
        )
    if args.dry_run:
        print(f"{'run':>4}  overrides")
        for v in variants:
            print(f"{v.index:>4}  {v.label()}")
        return 0

    store = args.store if args.store is not None else sweep.store
    if store and not args.quiet:
        print(f"store: {store} (completed variants restore instead of re-running)")
    progress = None if args.quiet else print
    result = run_ensemble(base, sweep, progress=progress, store=store)
    print(result.summary())
    return 0 if not result.failures else 1


def _cmd_validate(args) -> int:
    from repro.api.config import load_sweep_file
    from repro.api.ensemble import apply_overrides
    from repro.api.components import propagator_options
    from repro.api.simulation import Simulation

    cfg, sweep = load_sweep_file(args.config)

    def _check_components(vcfg) -> None:
        # build the cell, functional and field with their params, as `run`
        # does before its SCF, and the propagator's options
        sim = Simulation(vcfg)
        for component in ("cell", "functional", "field"):
            getattr(sim, component)
        propagator_options(vcfg.propagation.propagator, vcfg.propagation.options)

    _check_components(cfg)
    # each axis value is validated independently (sum of axis lengths, not
    # the cartesian product — a 4x10^4 grid must not stall `validate`);
    # component params and malformed paths all surface this way
    for path, values in sweep.axes.items():
        for value in values:
            _check_components(apply_overrides(cfg, {path: value}))
    print(cfg.to_json(indent=2))
    if sweep.axes:
        print(f"sweep: {sweep.n_runs} runs over {', '.join(sweep.axes)}")
    store = args.store if args.store is not None else sweep.store
    if store:
        # the opener's own test: an unusable path raises (exit 2), a store
        # this build cannot open is reported as warnings (the config is fine)
        from repro.store import inspect_store

        check = inspect_store(store)
        if check.meta is None:
            print(f"store: {store} (new, created on first run)")
        else:
            print(f"store: {store} (backend sqlite, schema {check.schema_version})")
        for problem in check.problems:
            print(f"warning: {problem}")
    return 0


def _cmd_serve(args) -> int:
    from repro.api.config import ConfigError, load_serve_file, overridden
    from repro.serve import JobService

    base, serve_cfg = load_serve_file(args.config)
    # flags are refused by the [serve] declarations before anything binds
    serve_cfg = overridden(
        serve_cfg, host=args.host, port=args.port, workers=args.workers,
        timeout=args.timeout, retries=args.retries,
    )
    store_path = args.store if args.store is not None else serve_cfg.store
    if not store_path:
        raise ConfigError(
            f"{args.config} has no serve.store and no --store was given; "
            f"the job service needs a result store to persist into"
        )
    service = JobService(
        store_path,
        host=serve_cfg.host,
        port=serve_cfg.port,
        workers=serve_cfg.workers,
        timeout=serve_cfg.timeout,
        retries=serve_cfg.retries,
        backoff=serve_cfg.backoff,
        log_requests=not args.quiet,
    )
    service.start()
    try:
        print(
            f"repro serve: {service.url} | store {service.store.root} | "
            f"{service.pool.n_workers} worker(s) | "
            f"timeout {service.timeout:g}s | retries {service.retries}"
        )
        if service.recovered:
            print(f"recovered {service.recovered} interrupted job(s) from the store")
        print("submit with: repro submit CONFIG --url " + service.url)
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("\nshutting down ...")
    finally:
        service.stop()
    return 0


def _cmd_submit(args) -> int:
    from repro.api.config import load_sweep_file
    from repro.api.ensemble import expand_sweep
    from repro.serve.client import ServeClient, stored_run

    base, sweep = load_sweep_file(args.config)
    variants = expand_sweep(base, sweep)
    client = ServeClient(args.url)
    submitted = []
    for v in variants:
        job = client.submit(
            v.config, max_attempts=args.retries, timeout=args.timeout
        )
        submitted.append(job)
        print(f"{job['job_id']}  {job['status']:<8} {v.label()}")
    if not args.wait:
        print(f"{len(submitted)} job(s) submitted to {args.url}")
        return 0
    finals = [stored_run(client.wait(job["job_id"])) for job in submitted]
    _print_listing(finals)
    return 0 if all(run.ok for run in finals) else 1


def _watch_line(job) -> str:
    bar = int(round(20 * float(job["progress"] or 0.0)))
    return (
        f"{job['job_id']}  {job['status']:<8} "
        f"[{'#' * bar}{'.' * (20 - bar)}] {100 * float(job['progress'] or 0):3.0f}%"
        f"  {job['message'] or ''}"
    )


def _print_listing(runs) -> None:
    """Rows, one line each: ``jobs ls`` of either target, ``submit --wait``."""
    print(
        f"{'run id':<14} {'status':<9} {'att':>3} {'created (UTC)':<20} "
        f"{'t (s)':>8} {'steps':>6}  overrides"
    )
    for run in runs:
        note = f"  !! {run.error.splitlines()[0]}" if run.error else ""
        print(
            f"{run.run_id:<14} {run.status:<9} {run.attempts:>3} {run.created_iso():<20} "
            f"{run.elapsed:>8.2f} {run.n_times:>6}  {run.label()}{note}"
        )


def _cmd_jobs(args) -> int:
    on_server = args.target.startswith(("http://", "https://"))
    if args.jobs_command in ("watch", "cancel") and not on_server:
        raise ValueError(
            f"jobs {args.jobs_command} needs a job-server URL (http://HOST:PORT), "
            f"got {args.target!r}: a store directory has no live jobs"
        )
    # a store directory and a server read rows alike: one code prints either
    if on_server:
        from repro.serve import ServeClient

        target = ServeClient(args.target)
    else:
        from repro.store import ResultStore

        target = ResultStore(args.target, create=False)
    try:
        if args.jobs_command == "ls":
            from repro.store import parse_when, parse_where

            runs = target.query(
                status=args.status,
                where=parse_where(args.where),
                since=parse_when(args.since),
                until=parse_when(args.until, end=True),
                limit=args.limit,
                offset=args.offset,
            )
            _print_listing(runs)
            if args.limit is not None or args.offset:
                print(
                    f"{len(runs)} run(s) shown (offset {args.offset}) "
                    f"of {len(target)} total in {args.target}"
                )
            else:
                print(f"{len(runs)} run(s) in {args.target}")
        elif args.jobs_command == "show":
            run, attempts = target.history(args.run_id)
            print(f"run {run.run_id} [{run.label()}]: {run.status}")
            print(
                f"  created {run.created_iso()} UTC | elapsed {run.elapsed:.2f} s "
                f"| {run.n_times} observations"
            )
            print(
                f"  attempts {run.attempts}/{run.max_attempts} | timeout {run.timeout:g}s "
                f"| worker {run.worker or '-'}"
            )
            print(f"  config hash {run.config_hash}")
            if run.gs_address:
                print(f"  ground-state blob {run.gs_address}")
            if run.error:
                print(f"  error: {run.error}")
            for att in attempts:
                took = (
                    f"{att['finished'] - att['started']:.2f}s"
                    if att["finished"] and att["started"] else "-"
                )
                print(
                    f"  attempt {att['attempt']}: {att['outcome'] or 'running'} "
                    f"on {att['worker'] or '-'} ({took})"
                )
            if run.fft:
                print(f"FFTs: {run.fft['transforms']} transforms in {run.fft['calls']} calls")
            if run.ok:
                # the summary is read from the file `jobs fetch` writes
                from repro.api.simulation import read_result_npz

                with tempfile.TemporaryDirectory() as tmp:
                    path = target.fetch(run.run_id, Path(tmp) / "result.npz")
                    print(read_result_npz(path, expected_config=run.config).summary())
            if args.config:
                print(run.config.to_json(indent=2))
        elif args.jobs_command == "fetch":
            path = target.fetch(args.run_id, args.output)
            print(f"run {args.run_id} saved to {path}")
        elif args.jobs_command == "cancel":
            job = target.cancel(args.job_id)
            print(f"job {job['job_id']} is now {job['status']}")
        elif args.job_id is not None:  # watch one job
            final = target.wait(
                args.job_id,
                timeout_s=args.timeout,
                progress=lambda j: print("\r" + _watch_line(j), end="", flush=True),
            )
            print()
            return 0 if final["status"] == "ok" else 1
        else:  # watch the whole queue
            deadline = time.monotonic() + args.timeout
            while True:
                counts = target.stats()["jobs"]
                print(
                    f"\rqueued {counts['queued']}  running {counts['running']}  "
                    f"ok {counts['ok']}  error {counts['error']}  "
                    f"cancelled {counts['cancelled']}   ",
                    end="", flush=True,
                )
                if counts["queued"] == 0 and counts["running"] == 0:
                    print()
                    return 1 if counts["error"] else 0
                if time.monotonic() >= deadline:
                    print()
                    print(f"error: queue not drained after {args.timeout:g}s", file=sys.stderr)
                    return 1
                time.sleep(0.5)
    finally:
        target.close()
    return 0


def _cmd_components(args) -> int:
    from repro.api.components import COMPONENTS

    for kind, names in COMPONENTS.items():
        print(f"{kind}: {', '.join(sorted(names))}")
    return 0


def _cmd_perf(args) -> int:
    from repro.api.config import ParallelConfig
    from repro.perf.experiments import scaling_report

    if args.machine is None:
        print(scaling_report())
    else:  # a machine name is refused by `parallel.machine`'s one gate
        print(scaling_report((ParallelConfig(machine=args.machine).machine,)))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "resume": _cmd_resume,
    "sweep": _cmd_sweep,
    "validate": _cmd_validate,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "components": _cmd_components,
    "perf": _cmd_perf,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        # ValueError covers ConfigError plus the low-level require() checks
        # (e.g. "N bands cannot hold M electrons") reachable from user configs
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
