"""``python -m bench --compare A.json B.json`` — B against A, row by row.

One row per (end-to-end metric, workload): both medians, the relative
change (positive = B worse), the metric's bound, and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is — or B has no reading where A has one (a failed
                operation counts as missing every timing)
``unresolved``  the run-to-run spread of either side is wider than the
                bound, so the medians cannot settle it — unless every
                run of B reads better than every run of A (``ok``), or
                worse than every run of A and past the bound (``worse``)

``fail_frac`` has its own row per workload, bound 0 absolute: any failed
operation or check in B is ``worse``.  A combined score is never formed.
Exit status is non-zero on any ``worse``.  Used for the same-code check
(two reports of one commit must show no ``worse``) and for
parent-versus-change runs.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List

from bench import layers

NAN = float("nan")


def _spread(cell: Dict[str, Any]) -> float:
    return (cell["q3"] - cell["q1"]) / abs(cell["median"]) if cell["median"] else 0.0


def verdict(a: Dict[str, Any], b: Dict[str, Any], better: str, bound: float) -> Dict[str, Any]:
    """Judge one (metric, workload) pair from the two reports' cells."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (b["median"] - a["median"]) / abs(a["median"])
    spread = max(_spread(a), _spread(b))
    # every run of B on one side of every run of A: the medians do settle it
    separated = max(b["values"]) < min(a["values"]) or min(b["values"]) > max(a["values"])
    if spread > bound and not separated:
        status = "unresolved"
    elif change > bound:
        status = "worse"
    else:
        status = "ok"
    return {"change": change, "spread": spread, "status": status}


def compare_reports(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    bounds, better = a["bounds"], a["better"]
    for workload in layers.WORKLOAD_NAMES:
        for metric in (m.name for m in layers.END_TO_END if m.name in bounds):
            cell_a = a["end_to_end"].get(workload, {}).get(metric)
            cell_b = b["end_to_end"].get(workload, {}).get(metric)
            if cell_a is None:
                continue
            if cell_b is None:
                row = {"change": NAN, "spread": NAN, "status": "worse"}
            else:
                row = verdict(cell_a, cell_b, better[metric], bounds[metric])
            row.update(
                workload=workload, metric=metric, unit=cell_a["unit"], a=cell_a["median"],
                b=NAN if cell_b is None else cell_b["median"], bound=bounds[metric],
            )
            rows.append(row)
        fail_a, fail_b = a["fail"].get(workload), b["fail"].get(workload)
        if fail_a is not None:
            # no row for the workload in B means none of its runs was even started
            frac_b = 1.0 if fail_b is None else fail_b["fail_frac"]
            rows.append(
                {
                    "workload": workload, "metric": "fail_frac", "unit": "frac",
                    "a": fail_a["fail_frac"], "b": frac_b, "change": frac_b - fail_a["fail_frac"],
                    "bound": 0.0, "spread": 0.0, "status": "worse" if frac_b > 0 else "ok",
                }
            )
    return rows


def compare_files(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    rows = compare_reports(a, b)
    if not rows:
        print("bench: the two reports share no (metric, workload) pair", file=sys.stderr)
        return 2
    print(f"A: {path_a}  (commit {a['provenance']['git_commit'][:12]}, {a['provenance']['runs']} runs)")
    print(f"B: {path_b}  (commit {b['provenance']['git_commit'][:12]}, {b['provenance']['runs']} runs)")
    print(
        f"{'workload':<18} {'metric':<12} {'unit':<5} {'A median':>10} {'B median':>10} "
        f"{'B worse by':>10} {'bound':>6} {'spread':>7}  verdict"
    )
    for r in rows:
        print(
            f"{r['workload']:<18} {r['metric']:<12} {r['unit']:<5} {r['a']:>10.4g} {r['b']:>10.4g} "
            f"{r['change']:>+10.1%} {r['bound']:>6.0%} {r['spread']:>7.1%}  {r['status']}"
        )
    worse = [r for r in rows if r["status"] == "worse"]
    unresolved = [r for r in rows if r["status"] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0
