"""``python -m bench --selftest`` — the harness checked against itself.

Seconds, not minutes: toy spans and toy modules exercise the tracer
(self time, alias patching, restore-by-identity, per-thread stacks),
``BENCHMARK.json`` is compared with the table it is generated from,
``--compare`` must call a dead workload and a failed check ``worse``, a
command that orphans a process and starts a spawn pool must leave nothing
behind, and one traced smoke of the PT-IM-ACE workload — a capped SCF and a single
capped step, so nothing converges — must be covered by spans to 95 %.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import threading
import types
from pathlib import Path
from typing import Callable, List

from bench import layers
from bench.trace import Span, Tracer, span_stats


def _toy_modules():
    defs = types.ModuleType("benchtoy_defs")
    exec("def f(x):\n    return x + 1\n\nclass Toy:\n    def m(self):\n        return f(1)\n", defs.__dict__)
    user = types.ModuleType("benchtoy_user")
    sys.modules["benchtoy_defs"] = defs
    exec("from benchtoy_defs import f\n\ndef call():\n    return f(41)\n", user.__dict__)
    sys.modules["benchtoy_user"] = user
    return defs, user


def check_self_time() -> None:
    spans = [
        Span(0, "outer", 0.0, 1.0, -1, 1),
        Span(1, "inner", 0.1, 0.4, 0, 1),
        Span(2, "inner", 0.5, 0.7, 0, 1),
        Span(3, "leaf", 0.15, 0.25, 1, 1),
    ]
    stats = span_stats(spans)
    assert abs(stats["outer"].self_s - 0.5) < 1e-12, stats
    assert abs(stats["inner"].self_s - 0.4) < 1e-12 and stats["inner"].calls == 2, stats
    assert abs(stats["leaf"].self_s - 0.1) < 1e-12, stats
    assert abs(sum(s.self_s for s in stats.values()) - 1.0) < 1e-12, "self times add up to the root"

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(2000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    live = tracer.stats()
    assert live["inner"].calls == 3 and live["outer"].calls == 1, live
    root = [s for s in tracer.spans if s.name == "outer"][0]
    assert all(s.parent == root.id for s in tracer.spans if s.name == "inner")
    assert 0.0 <= live["outer"].self_s <= live["outer"].total_s
    assert abs(live["outer"].self_s + live["inner"].total_s - live["outer"].total_s) < 1e-9


def check_alias_patching_and_restore() -> None:
    defs, user = _toy_modules()
    try:
        original_f, original_m = defs.f, defs.Toy.__dict__["m"]
        tracer = Tracer()
        tracer.install(
            [("toy.f", "benchtoy_defs", "f"), ("toy.m", "benchtoy_defs", "Toy.m")],
            alias_prefixes=("benchtoy_",),
        )
        assert user.f is not original_f, "the `from m import f` alias was not reached"
        assert user.call() == 42 and defs.Toy().m() == 2
        stats = tracer.stats()
        assert stats["toy.f"].calls == 2 and stats["toy.m"].calls == 1, stats
        tracer.uninstall()
        assert defs.f is original_f and user.f is original_f, "module function not restored"
        assert defs.Toy.__dict__["m"] is original_m, "method not restored"
        before = len(tracer.spans)
        user.call()
        assert len(tracer.spans) == before, "a wrapper survived uninstall"
    finally:
        sys.modules.pop("benchtoy_defs", None)
        sys.modules.pop("benchtoy_user", None)


def check_thread_stacks() -> None:
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def work(tag: str) -> None:
        with tracer.span(f"{tag}.outer"):
            barrier.wait()  # both outers are open before either inner starts
            with tracer.span(f"{tag}.inner"):
                barrier.wait()

    threads = [threading.Thread(target=work, args=(tag,)) for tag in ("a", "b")]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive(), "span threads did not finish"
    by_id = {s.id: s for s in tracer.spans}
    assert len(by_id) == 4
    for s in tracer.spans:
        if s.name.endswith(".inner"):
            parent = by_id[s.parent]
            assert parent.thread == s.thread and parent.name == s.name.replace("inner", "outer"), (
                "a span was parented across threads"
            )
        else:
            assert s.parent == -1


def check_benchmark_json() -> None:
    from bench.runner import ROOT
    from bench.workloads import REFERENCE_SECONDS

    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        print("   (no BENCHMARK.json beside bench/: skipped)")
        return
    on_disk = json.loads(path.read_text())
    expected = layers.benchmark_json(on_disk["command"], on_disk["paths"], REFERENCE_SECONDS)
    assert on_disk == expected, "BENCHMARK.json disagrees with bench/layers.py"
    assert len(expected["per_layer"]) <= 128 and 2 <= len(expected["workloads"]) <= 8


def check_compare_gates() -> None:
    from bench.compare import compare_reports
    from bench.suite import quartiles

    def report(values, failed=0, workload="si8-hse-ace"):
        cells = {"scf_s": {"unit": "s", "values": values, **quartiles(values)}} if values else {}
        return {
            "bounds": {"scf_s": 0.10}, "better": {"scf_s": "lower"},
            "end_to_end": {workload: cells},
            "fail": {workload: {"attempted": 6, "failed": failed, "fail_frac": failed / 6}},
        }

    def statuses(a, b):
        return {r["metric"]: r["status"] for r in compare_reports(a, b)}

    base = report([1.00, 1.01, 1.02])
    assert statuses(base, report([1.03, 1.04, 1.05])) == {"scf_s": "ok", "fail_frac": "ok"}
    assert statuses(base, report([1.20, 1.21, 1.22]))["scf_s"] == "worse"
    assert statuses(base, report([0.90, 1.30, 1.00]))["scf_s"] == "unresolved"
    # spread past the bound, yet every run of B is slower than every run of A
    assert statuses(base, report([1.10, 1.50, 1.30]))["scf_s"] == "worse"
    assert statuses(base, report([0.50, 0.90, 0.70]))["scf_s"] == "ok"
    assert statuses(base, report([1.00, 1.01, 1.02], failed=1))["fail_frac"] == "worse"
    dead = statuses(base, report([], failed=6))
    assert dead == {"scf_s": "worse", "fail_frac": "worse"}, dead


_LEAVES_PROCESSES = textwrap.dedent(
    """
    import multiprocessing as mp, subprocess, sys, time
    from multiprocessing import resource_tracker
    from bench.procs import owning_descendants

    SLEEP = [sys.executable, "-c", "import time; time.sleep(60)"]
    ORPHAN = "import subprocess, sys; print(subprocess.Popen(sys.argv[1:]).pid)"

    if __name__ == "__main__":
        with owning_descendants():
            subprocess.run([sys.executable, "-c", ORPHAN, *SLEEP], check=True)
            worker = mp.get_context("spawn").Process(target=time.sleep, args=(60,))
            worker.start()
            print(worker.pid, resource_tracker._resource_tracker._pid)
    """
)


def check_no_process_left() -> None:
    from bench.runner import ROOT

    proc = subprocess.run(
        [sys.executable, "-c", _LEAVES_PROCESSES], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr[-500:]
    pids = [int(word) for word in proc.stdout.split()]
    assert len(pids) == 3, proc.stdout
    # running or zombie, a process that is still there has a /proc entry
    left = [pid for pid in pids if os.path.exists(f"/proc/{pid}")]
    assert not left, f"the command returned with {left} of {pids} not ended and waited for"


def check_traced_smoke() -> None:
    from bench.runner import DEFAULT_OUT, layer_metrics, tracing
    from bench.workloads import RunContext, run_si8, si8_config

    config = si8_config(seed=1, dense=False, n_steps=1)
    config["scf"].update(max_scf=2, max_outer=2)
    config["propagation"]["options"].update(max_outer=2, max_inner=4)
    DEFAULT_OUT.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=DEFAULT_OUT))
    try:
        with tracing("selftest") as (tracer, cost):
            ctx = RunContext(seed=1, seconds=1.0, scratch=scratch, tracer=tracer)
            outcome = run_si8(ctx, dense=False, config=config)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    values = layer_metrics(tracer, outcome, cost)
    assert values["trace_coverage_frac"] >= 0.95, values["trace_coverage_frac"]
    assert values["rt.step.calls"] == 1 and values["scf.run_scf.calls"] == 1
    assert values["parallel.comm.calls"] == 0, "parallel layer ran on the serial workload"
    assert set(values) == {name for name, _, _ in layers.per_layer_metrics()}
    print(f"   coverage {values['trace_coverage_frac']:.4f}, {len(tracer.spans)} spans")


def selftest() -> int:
    checks: List[Callable[[], None]] = [
        check_self_time,
        check_alias_patching_and_restore,
        check_thread_stacks,
        check_benchmark_json,
        check_compare_gates,
        check_no_process_left,
        check_traced_smoke,
    ]
    failed = 0
    for check in checks:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failed else 0
