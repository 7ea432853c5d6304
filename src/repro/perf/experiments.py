"""Generators for the paper's evaluation artifacts (Figs. 9-11, Table I).

Each function returns plain dict/list structures (easy to print or
assert on) with the same rows/series the paper reports; the benchmark
harness under ``benchmarks/`` prints them next to the paper values from
:mod:`repro.perf.calibrate`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.backend import FFTCounters
from repro.parallel.ledger import CostLedger
from repro.parallel.machine import MachineSpec, machine_by_name
from repro.perf.calibrate import (
    FIG9_NATOM,
    FIG9_NODES,
    TABLE1_NATOM,
    TABLE1_NODES,
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
    counters: FFTCounters, machine: "MachineSpec | str", nranks: int = 1
) -> float:
    """Modeled per-rank compute time of a *measured* FFT tally.

    Every executed 3-D transform in ``counters.by_shape`` is priced with
    the machine's bandwidth-bound :meth:`~repro.parallel.machine.
    MachineSpec.fft_box_time`; the total is divided by ``nranks`` because
    the tally merges all ranks' work while Table I reports per-rank time.
    """
    machine = machine_by_name(machine) if isinstance(machine, str) else machine
    total = sum(
        count * machine.fft_box_time(int(np.prod(shape)))
        for shape, count in counters.by_shape.items()
    )
    return total / max(int(nranks), 1)


def measured_table1(
    ledgers: Mapping[str, CostLedger],
    machine: "MachineSpec | str",
    natom: int,
    nranks: int,
    fft: Optional[Mapping[str, FFTCounters]] = None,
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


def format_table1(result: Dict) -> str:
    """Render a Table-I-like text table (model or measured rows)."""
    cols = ("alltoallv", "sendrecv", "wait", "allgatherv", "allreduce", "bcast", "total_comm", "comm_ratio")
    header = f"{'variant':<12}" + "".join(f"{c:>12}" for c in cols)
    lines = [f"# {result['machine']} | {result['natom']} atoms | {result['nodes']} nodes", header]
    for variant, row in result["rows"].items():
        # measured small-system ledgers are fractions of a millisecond;
        # fall back to scientific notation where fixed-point would read 0.00
        seconds = [row[c] for c in cols if c != "comm_ratio"]
        small = 0.0 < max(abs(v) for v in seconds) < 0.05
        cells = ""
        for c in cols:
            if c == "comm_ratio":
                cells += f"{row[c] * 100.0:>12.2f}"
            elif small:
                cells += f"{row[c]:>12.2e}"
            else:
                cells += f"{row[c]:>12.2f}"
        lines.append(f"{variant:<12}" + cells)
    return "\n".join(lines)
