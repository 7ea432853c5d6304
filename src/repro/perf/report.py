"""Text report of the paper's evaluation figures from the calibrated model.

Renders Fig. 9 (step-by-step speedups), Fig. 10 (strong scaling), Fig. 11
(weak scaling) and Table I (communication breakdown) next to the paper's
reported numbers, per platform.  Shared by ``python -m repro perf`` and
``examples/scaling_projection.py``.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.perf.calibrate import (
    FIG9_SPEEDUPS,
    FIG9_TOTAL_SPEEDUP,
    STRONG_SCALING,
    TABLE1,
    WEAK_ANCHORS,
)
from repro.perf.experiments import (
    fig9_step_by_step,
    fig10_strong_scaling,
    fig11_weak_scaling,
    format_table1,
    table1_communication,
)

MACHINES = ("fugaku-arm", "a100-gpu")


def machine_report(machine: str) -> str:
    """The four evaluation blocks for one platform."""
    lines: List[str] = ["=" * 78]

    r = fig9_step_by_step(machine)
    lines.append(f"Fig 9 | {machine} | 384-atom Si | {r['nodes']} nodes")
    lines.append(f"{'stage':<8}{'t/step (s)':>12}{'speedup':>10}{'paper':>8}")
    prev = None
    for stage, t in r["step_seconds"].items():
        inc = f"{prev / t:.2f}" if prev else ""
        paper = FIG9_SPEEDUPS[machine].get(stage, "")
        lines.append(f"{stage:<8}{t:>12.1f}{inc:>10}{paper!s:>8}")
        prev = t
    lines.append(
        f"total speedup: {r['total_speedup']:.1f}x (paper {FIG9_TOTAL_SPEEDUP[machine]}x)\n"
    )

    cfg = STRONG_SCALING[machine]
    n0, n1 = cfg["nodes"]
    rows = fig10_strong_scaling(machine, cfg["natom"], [n0, 2 * n0, 4 * n0, n1])["rows"]
    lines.append(f"Fig 10 | strong scaling | {cfg['natom']} atoms")
    for row in rows:
        lines.append(
            f"  {row['nodes']:>5} nodes  {row['seconds']:>9.1f} s  eff {row['efficiency']:.1%}"
        )
    lines.append(
        f"  paper endpoint: {cfg['speedup']}x speedup, {cfg['efficiency']:.1%} efficiency\n"
    )

    rows = fig11_weak_scaling(machine)["rows"]
    lines.append("Fig 11 | weak scaling")
    for row in rows:
        anchor = WEAK_ANCHORS.get((machine, row["natom"]))
        mark = f"  (paper {anchor:.1f} s)" if anchor else ""
        lines.append(
            f"  {row['natom']:>5} atoms / {row['nodes']:>4} nodes  {row['seconds']:>9.1f} s{mark}"
        )
    lines.append("")

    lines.append(format_table1(table1_communication(machine)))
    paper_totals = {v: TABLE1[machine][v]["total_comm"] for v in ("ACE", "Ring", "Async")}
    lines.append(f"paper totals: {paper_totals}\n")
    return "\n".join(lines)


def scaling_report(machines: Iterable[str] = MACHINES) -> str:
    """Full multi-platform projection report."""
    return "\n".join(machine_report(m) for m in machines)

