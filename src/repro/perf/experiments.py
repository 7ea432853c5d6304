"""Generators for the paper's evaluation artifacts (Figs. 9-11, Table I),
and the one text-table formatter that prints them.

Each generator returns plain dict/list structures (easy to print or
assert on) with the same rows/series the paper reports.
:func:`format_table` renders every table the package prints: the
projection report of ``repro perf`` (Fig. 9-11 and Table I next to the
paper values from :mod:`repro.perf.calibrate`, also
``examples/scaling_projection.py``), a parallel run's measured Table I
and a run's measured split (:func:`format_split`).
"""

from __future__ import annotations

import math
import re
from string import Formatter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.backend import FFTTally
from repro.parallel.ledger import CostLedger
from repro.parallel.machine import MACHINES, MachineSpec, machine_by_name
from repro.perf.calibrate import (
    FIG9_NATOM,
    FIG9_NODES,
    FIG9_SPEEDUPS,
    FIG9_TOTAL_SPEEDUP,
    STRONG_SCALING,
    TABLE1,
    TABLE1_NATOM,
    TABLE1_NODES,
    WEAK_ANCHORS,
    WEAK_SCALING_ATOMS,
    WEAK_SCALING_RULE,
    ranks_for_nodes,
)
from repro.perf.counts import VARIANTS, SystemSize
from repro.perf.model import StepTimeModel


def fig9_step_by_step(machine_name: str, natom: int = FIG9_NATOM, nodes: int | None = None) -> Dict:
    """Per-variant step times and incremental speedups (paper Fig. 9)."""
    machine = machine_by_name(machine_name)
    nodes = nodes if nodes is not None else FIG9_NODES[machine.name]
    nranks = ranks_for_nodes(machine.name, nodes)
    model = StepTimeModel(machine)
    size = SystemSize(natom)

    times = {v: model.step_seconds(size, nranks, v) for v in VARIANTS}
    speedups = {}
    prev = None
    for v in VARIANTS:
        if prev is not None:
            speedups[v] = times[prev] / times[v]
        prev = v
    return {
        "machine": machine.name,
        "natom": natom,
        "nodes": nodes,
        "step_seconds": times,
        "incremental_speedup": speedups,
        "total_speedup": times["BL"] / times["Async"],
    }


def fig10_strong_scaling(
    machine_name: str, natom: int, node_list: Sequence[int], variant: str = "Async"
) -> Dict:
    """Wall time per step vs node count at fixed system size (Fig. 10)."""
    machine = machine_by_name(machine_name)
    model = StepTimeModel(machine)
    size = SystemSize(natom)
    rows: List[Dict] = []
    base = None
    for nodes in node_list:
        nranks = ranks_for_nodes(machine.name, nodes)
        t = model.step_seconds(size, nranks, variant)
        if base is None:
            base = (nodes, t)
        scale = nodes / base[0]
        speedup = base[1] / t
        rows.append(
            {
                "nodes": nodes,
                "seconds": t,
                "speedup": speedup,
                "efficiency": speedup / scale,
                "ideal_seconds": base[1] / scale,
            }
        )
    return {"machine": machine.name, "natom": natom, "variant": variant, "rows": rows}


def fig11_weak_scaling(machine_name: str, variant: str = "Async") -> Dict:
    """Wall time per step as system and machine grow together (Fig. 11).

    Node counts follow the paper's rule: nodes = orbitals / 4 on ARM,
    orbitals / 40 on GPU.  The ideal curve scales as O(N^2) per the
    paper (O(N^3) work over O(N) nodes).
    """
    machine = machine_by_name(machine_name)
    model = StepTimeModel(machine)
    rule = WEAK_SCALING_RULE[machine.name]
    rows: List[Dict] = []
    base = None
    for natom in WEAK_SCALING_ATOMS[machine.name]:
        size = SystemSize(natom)
        nodes = max(int(round(size.nbands / rule)), 1)
        nranks = ranks_for_nodes(machine.name, nodes)
        t = model.step_seconds(size, nranks, variant)
        if base is None:
            base = (natom, t)
        ideal = base[1] * (natom / base[0]) ** 2
        rows.append({"natom": natom, "nodes": nodes, "seconds": t, "ideal_seconds": ideal})
    return {"machine": machine.name, "variant": variant, "rows": rows}


def table1_communication(machine_name: str, natom: int = TABLE1_NATOM, nodes: int | None = None) -> Dict:
    """MPI time per category for the ACE / Ring / Async variants (Table I)."""
    machine = machine_by_name(machine_name)
    nodes = nodes if nodes is not None else TABLE1_NODES[machine.name]
    nranks = ranks_for_nodes(machine.name, nodes)
    model = StepTimeModel(machine)
    size = SystemSize(natom)
    rows = {}
    for variant in ("ACE", "Ring", "Async"):
        rows[variant] = model.breakdown(size, nranks, variant).table_row()
    return {"machine": machine.name, "natom": natom, "nodes": nodes, "rows": rows}


def modeled_fft_seconds(
    fft: FFTTally, machine: "MachineSpec | str", nranks: int = 1
) -> float:
    """Modeled per-rank compute time of a *measured* FFT tally.

    Every executed 3-D transform in ``fft.by_shape`` is priced with
    the machine's bandwidth-bound :meth:`~repro.parallel.machine.
    MachineSpec.fft_box_time`; the total is divided by ``nranks`` because
    the tally merges all ranks' work while Table I reports per-rank time.
    """
    machine = machine_by_name(machine) if isinstance(machine, str) else machine
    total = sum(
        count * machine.fft_box_time(math.prod(int(n) for n in shape.split("x")))
        for shape, count in fft.by_shape.items()
    )
    return total / max(int(nranks), 1)


def measured_table1(
    ledgers: Mapping[str, CostLedger],
    machine: "MachineSpec | str",
    natom: int,
    nranks: int,
    fft: Optional[Mapping[str, FFTTally]] = None,
) -> Dict:
    """A Table-I result dict from *measured* run ledgers.

    Same shape as :func:`table1_communication` — so
    :func:`format_table1` renders executed communication accounting next
    to the analytic model.  ``ledgers`` maps row labels (pattern or
    variant names) to the :class:`CostLedger` each run charged; ``fft``
    (optional, same keys) supplies the runs' measured FFT tallies so
    ``comm_ratio`` is communication over modeled comm + compute rather
    than communication over itself (1.0 without a tally).
    """
    machine = machine_by_name(machine) if isinstance(machine, str) else machine
    rows = {}
    for label, ledger in ledgers.items():
        compute = 0.0
        if fft is not None and fft.get(label) is not None:
            compute = modeled_fft_seconds(fft[label], machine, nranks)
        row = rows[label] = ledger.seconds_by_category()
        total = row["total_comm"] = ledger.total_seconds()
        row["comm_ratio"] = total / (total + compute) if total + compute > 0.0 else 0.0
    return {
        "machine": machine.name,
        "natom": int(natom),
        "nodes": machine.nodes(int(nranks)),
        "rows": rows,
    }


def format_table(row: str, rows: Iterable[Mapping[str, Any]], header: Sequence[str] = ()) -> List[str]:
    """The lines of a text table: each of ``rows`` through the ``str.format``
    template ``row``, whose fields name row keys, after a ``header`` line
    (one title per field, set in its field's width and alignment) when
    one is given.  Every table the package prints is made here."""
    lines = [row.format(**r) for r in rows]
    if not header:
        return lines
    titles = "".join(
        text + format(title, re.match(r"[<>^]?\d*", spec).group())
        for (text, _, spec, _), title in zip(Formatter().parse(row), header)
    )
    return [titles, *lines]


def format_table1(result: Dict) -> str:
    """Render a Table-I-like text table (model or measured rows)."""
    seconds = ("alltoallv", "sendrecv", "wait", "allgatherv", "allreduce", "bcast", "total_comm")
    rows = []
    for variant, row in result["rows"].items():
        # measured small-system ledgers are fractions of a millisecond;
        # fall back to scientific notation where fixed-point would read 0.00
        spec = ".2e" if 0.0 < max(abs(row[c]) for c in seconds) < 0.05 else ".2f"
        cells = {c: format(row[c], spec) for c in seconds}
        rows.append({"variant": variant, **cells, "comm_ratio": f"{row['comm_ratio'] * 100.0:.2f}"})
    cols = ("variant", *seconds, "comm_ratio")
    return "\n".join([
        f"# {result['machine']} | {result['natom']} atoms | {result['nodes']} nodes",
        *format_table(
            "{variant:<12}" + "".join(f"{{{c}:>12}}" for c in cols[1:]), rows, cols
        ),
    ])


def format_split(spans: Mapping[str, Any]) -> str:
    """Where a run's seconds went: the root span ``api.run``'s total, then
    every other span's self seconds (largest first) and share of it, then
    the root's own time as ``unattributed``.  ``spans`` maps names to
    :class:`~repro.trace.SpanStats`; the rows below the root sum to it."""
    root = spans["api.run"]
    rows = [{"span": "api.run", "calls": root.calls, "seconds": root.total_s}]
    rows += sorted(
        ({"span": k, "calls": s.calls, "seconds": s.self_s} for k, s in spans.items() if k != "api.run"),
        key=lambda r: -r["seconds"],
    )
    rows.append({"span": "unattributed", "calls": "", "seconds": root.self_s})
    for r in rows:
        r["share"] = r["seconds"] / root.total_s
    return "\n".join([
        "where the seconds went (measured: api.run's total, then each span's own seconds)",
        *format_table(
            "{span:<34}{calls:>8}{seconds:>12.4f}{share:>9.1%}", rows, ("span", "calls", "seconds", "share")
        ),
    ])


def machine_report(machine: str) -> str:
    """The four evaluation blocks for one platform, beside the paper's numbers."""
    fig9 = fig9_step_by_step(machine)
    speedup = fig9["incremental_speedup"]
    stages = [
        {"stage": stage, "t": t, "speedup": f"{speedup[stage]:.2f}" if stage in speedup else "",
         "paper": FIG9_SPEEDUPS[machine].get(stage, "")}
        for stage, t in fig9["step_seconds"].items()
    ]
    strong = STRONG_SCALING[machine]
    n0, n1 = strong["nodes"]
    weak = fig11_weak_scaling(machine)["rows"]
    for row in weak:
        anchor = WEAK_ANCHORS.get((machine, row["natom"]))
        row["mark"] = f"  (paper {anchor:.1f} s)" if anchor else ""
    paper_totals = {v: TABLE1[machine][v]["total_comm"] for v in ("ACE", "Ring", "Async")}
    return "\n".join([
        "=" * 78,
        f"Fig 9 | {machine} | 384-atom Si | {fig9['nodes']} nodes",
        *format_table(
            "{stage:<8}{t:>12.1f}{speedup:>10}{paper!s:>8}",
            stages,
            ("stage", "t/step (s)", "speedup", "paper"),
        ),
        f"total speedup: {fig9['total_speedup']:.1f}x (paper {FIG9_TOTAL_SPEEDUP[machine]}x)\n",
        f"Fig 10 | strong scaling | {strong['natom']} atoms",
        *format_table(
            "  {nodes:>5} nodes  {seconds:>9.1f} s  eff {efficiency:.1%}",
            fig10_strong_scaling(machine, strong["natom"], [n0, 2 * n0, 4 * n0, n1])["rows"],
        ),
        f"  paper endpoint: {strong['speedup']}x speedup, {strong['efficiency']:.1%} efficiency\n",
        "Fig 11 | weak scaling",
        *format_table("  {natom:>5} atoms / {nodes:>4} nodes  {seconds:>9.1f} s{mark}", weak),
        "",
        format_table1(table1_communication(machine)),
        f"paper totals: {paper_totals}\n",
    ])


def scaling_report(machines: Iterable[str] = MACHINES) -> str:
    """The full multi-platform projection report (``repro perf``)."""
    return "\n".join(machine_report(m) for m in machines)
