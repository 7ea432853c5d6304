"""The full benchmark: every workload, several fresh-process runs, one report.

Each run is ``python -m bench --workload ...`` in its own interpreter,
one at a time (a run may itself use ``min(2, nproc)`` processes).
Workloads are interleaved — run 0 of all four, then run 1 — so a slow
stretch of the host lands on every workload, not on one.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from bench import layers
from bench.runner import ROOT, provenance

REPORT_NAME = "report.json"


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles the way the acceptance rule takes them."""
    values = list(values)
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def tail_percentile(samples: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ten samples beyond it (or None)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:  # fewer than ten samples beyond the median itself
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": ordered[n - 11], "n": n}


def _run_child(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path, run: int) -> Dict[str, Any]:
    detail = out_dir / f"run-{workload}-r{run}-t{int(trace)}.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--out", str(out_dir), "--detail", str(detail),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        # a run that died yields no timing at all: it is one failed operation
        return {
            "workload": workload, "trace": trace, "correct": False, "attempted": 1, "failed": 1,
            "failures": [f"run exited with code {proc.returncode}"], "metrics": {},
            "provenance": {"seed": seed},
        }
    return json.loads(detail.read_text())


def _aggregate(runs: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per workload, per metric: the runs' values with median and quartiles."""
    out: Dict[str, Dict[str, Any]] = {}
    for run in runs:
        for name, reading in run["metrics"].items():
            cell = out.setdefault(run["workload"], {}).setdefault(
                name, {"unit": reading["unit"], "values": []}
            )
            cell["values"].append(reading["value"])
    for metrics in out.values():
        for cell in metrics.values():
            cell.update(quartiles(cell["values"]))
    return out


def _fmt(x: float) -> str:
    return f"{x:.4g}"


def _print_end_to_end(table: Dict[str, Dict[str, Any]], fails: Dict[str, Dict[str, float]]) -> None:
    print("\nend-to-end metrics (timings at reference host speed; median [q1, q3] over runs)")
    print(f"{'workload':<18} {'metric':<12} {'unit':<5} {'median':>9} {'q1':>9} {'q3':>9} {'n':>3}  tail")
    for workload in layers.WORKLOAD_NAMES:
        for metric in layers.END_TO_END:
            cell = table.get(workload, {}).get(metric.name)
            if cell is None:
                continue
            tail = cell.get("pooled")
            tail_s = (
                f"p{tail['percentile']:.0f}={_fmt(tail['value'])} of {tail['n']} samples" if tail else "-"
            )
            print(
                f"{workload:<18} {metric.name:<12} {cell['unit']:<5} {_fmt(cell['median']):>9} "
                f"{_fmt(cell['q1']):>9} {_fmt(cell['q3']):>9} {cell['n']:>3}  {tail_s}"
            )
        if workload in fails:
            f = fails[workload]
            print(
                f"{workload:<18} {'fail_frac':<12} {'frac':<5} {_fmt(f['fail_frac']):>9} "
                f"{'':>9} {'':>9} {'':>3}  {f['failed']} of {f['attempted']} operations and checks"
            )


def _print_per_layer(table: Dict[str, Dict[str, Any]]) -> None:
    print("\nper-layer metrics (traced pass, median over runs; zero rows omitted)")
    for workload in layers.WORKLOAD_NAMES:
        cells = table.get(workload)
        if not cells:
            continue
        print(f"-- {workload}")
        for span in layers.span_names():
            calls = cells[f"{span}.calls"]["median"]
            if calls:
                print(f"   {span:<34} self {cells[f'{span}.self_s']['median']:>9.4f} s   calls {calls:>9.0f}")
        for name, unit, _ in (*layers.COUNTERS, *layers.TRACE_QUALITY):
            value = cells[name]["median"]
            if value:
                print(f"   {name:<34} {_fmt(value):>14} {unit}")


def run_suite(seed: int, seconds: float, runs: int, traced: bool, out_dir: Path) -> int:
    out_dir = Path(out_dir).resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    names = layers.WORKLOAD_NAMES

    def one_pass(trace: bool) -> List[Dict[str, Any]]:
        done = []
        for run in range(runs):
            for workload in names:
                print(f"[{'traced' if trace else 'timed'} run {run + 1}/{runs}] {workload}", flush=True)
                done.append(_run_child(workload, seed + run, seconds, trace, out_dir, run))
        return done

    timed = one_pass(trace=False)
    end_to_end = _aggregate(timed)
    fails: Dict[str, Dict[str, float]] = {}
    for run in timed:
        f = fails.setdefault(run["workload"], {"attempted": 0, "failed": 0})
        f["attempted"] += run["attempted"]
        f["failed"] += run["failed"]
    for f in fails.values():
        f["fail_frac"] = f["failed"] / f["attempted"]
    # per-sample metrics are pooled over samples x runs for the tail
    for workload, cells in end_to_end.items():
        pooled = [
            s
            for run in timed
            if run["workload"] == workload
            for s in run.get("samples", {}).get("rt_step_s", [])
        ]
        tail = tail_percentile(pooled)
        if tail is not None:
            cells["rt_step_s"]["pooled"] = {**tail, "median": statistics.median(pooled)}
    _print_end_to_end(end_to_end, fails)

    report: Dict[str, Any] = {
        "provenance": provenance(seed, seconds, runs),
        "workloads": list(names),
        "bounds": {m.name: m.bound for m in layers.END_TO_END},
        "better": {m.name: m.better for m in layers.END_TO_END},
        "end_to_end": end_to_end,
        "fail": fails,
        "runs": timed,
    }
    all_runs = list(timed)
    trace_quality_ok = True
    if traced:
        traced_runs = one_pass(trace=True)
        all_runs += traced_runs
        per_layer = _aggregate(traced_runs)
        _print_per_layer(per_layer)
        report["per_layer"] = per_layer
        report["trace_files"] = [r["trace_file"] for r in traced_runs if "trace_file" in r]
        report["runs"] = all_runs
        # the issue's acceptance on the two RT workloads; overhead is the
        # measured traced-over-untraced ratio of each run's own replay
        for workload in layers.RT_WORKLOADS:
            cells = per_layer.get(workload, {})
            coverage = cells.get("trace_coverage_frac", {}).get("median", 0.0)
            overhead = cells.get("trace_overhead_frac", {}).get("median", float("inf"))
            ok = coverage >= layers.MIN_TRACE_COVERAGE and overhead <= layers.MAX_TRACE_OVERHEAD
            trace_quality_ok &= ok
            print(
                f"   {workload}: trace_coverage_frac {coverage:.4f} (>= {layers.MIN_TRACE_COVERAGE}), "
                f"trace_overhead_frac {overhead:+.4f} (<= {layers.MAX_TRACE_OVERHEAD}): "
                f"{'ok' if ok else 'FAILED'}"
            )
        print("\ntrace files:")
        for path in report["trace_files"]:
            print(f"   {path}")

    report_path = out_dir / REPORT_NAME
    report_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"\nreport: {report_path}")
    bad = [r for r in all_runs if not r["correct"]]
    for run in bad:
        print(
            f"FAILED {run['workload']} (seed {run['provenance'].get('seed')}): "
            + "; ".join(run["failures"]),
            file=sys.stderr,
        )
    return 0 if not bad and trace_quality_ok else 1
