"""Host-speed reference: pinned sidecar processes read a fixed numpy kernel.

Why it exists: on the shared 2-vCPU host this benchmark was written on,
the same single-threaded numpy work runs 25 % slower or faster from one
multi-second window to the next, separately on each vCPU (neighbouring
VMs); CPU time tracks wall time, so it is execution speed that drifts,
not scheduling.  Eight-step propagations of identical work read 1.44 s
to 4.12 s per step within one hour.  A raw wall-clock reading therefore
cannot hold a 10-25 % regression bound.

:class:`HostSpeed` starts this module as a child process on every CPU a
workload run may use, pinned there, for the length of the run.  Four
times a second each child runs a kernel with the program's own mix —
batched 12^3 FFTs, small Gram products, an Anderson-style history
product — and logs the *CPU* seconds it took: the speed of that CPU at
that moment, whoever else was running on it.  A timing is reported as::

    (wall - sidecar CPU seconds per CPU) * REFERENCE_S / mean(readings in the window)

i.e. the seconds the phase would have taken, left alone, on a host where
the kernel takes ``REFERENCE_S``.  That host is this one when
undisturbed, so the numbers read as ordinary seconds; raw walls are kept
in the report.  A reading taken on *another* CPU than the work is
useless (the spread of ``scf_s`` went from 6 % raw to 20 %); on the same
CPU it cut 6 % to 2 % and ``rt_step_s`` from 14 % to 1.3 %.

The measured process itself is left alone: no reading runs in it, and
the kernel's buffers are not in its resident set.  A sidecar takes about
a tenth of its CPU, the same on every run of every commit.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Sequence, Tuple

#: kernel CPU time on the reference host (this host, undisturbed)
REFERENCE_S = 0.020

#: seconds between two readings
PERIOD_S = 0.25

_ROUNDS = 8


def _sidecar(cpu: int, log_path: str) -> None:
    """Child side: one ``<unix time> <kernel CPU seconds>`` line per reading."""
    os.sched_setaffinity(0, {cpu})
    import numpy as np

    # raw numpy on purpose, not repro's Backend: a change to the program
    # under test must not be able to move the yardstick
    rng = np.random.default_rng(20250613)
    shape = (24, 12, 12, 12)
    box = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    rows = box.reshape(24, -1)
    history = rng.standard_normal((20, rows.size)) + 0j
    coef = rng.standard_normal(20) + 0j

    def kernel() -> None:
        for _ in range(_ROUNDS):
            g = np.fft.fftn(box, axes=(1, 2, 3))
            np.fft.ifftn(g, axes=(1, 2, 3))
            s = rows.conj() @ rows.T
            s @ rows
            (rows.conj() * rows).real.sum(axis=0)
        coef @ history

    for _ in range(2):  # page in buffers, build pocketfft plans
        kernel()
    parent = os.getppid()
    due = time.time()
    with open(log_path, "w") as log:
        # an orphaned sidecar (its run was killed) ends by itself
        while os.getppid() == parent:
            stamp = time.time()
            c0 = time.thread_time()
            kernel()
            log.write(f"{stamp:.4f} {time.thread_time() - c0:.6f}\n")
            log.flush()
            due = max(due + PERIOD_S, time.time())
            time.sleep(max(0.0, due - time.time()))


class HostSpeed:
    """The sidecars of ``cpus`` and their readings; windows are in ``perf_counter`` time."""

    def __init__(self, log_dir: Path, cpus: Sequence[int]) -> None:
        self._to_unix = time.time() - time.perf_counter()
        self._logs = [Path(log_dir) / f"host-speed-cpu{cpu}.log" for cpu in cpus]
        self._procs: List[subprocess.Popen] = []
        try:
            for cpu, log in zip(cpus, self._logs):
                self._procs.append(
                    subprocess.Popen(
                        [sys.executable, "-m", "bench.calibrate", str(cpu), str(log)],
                        cwd=Path(__file__).resolve().parent.parent,
                    )
                )
            deadline = time.monotonic() + 60.0
            # a first line in every log says every kernel is warm
            while not all(_read(log) for log in self._logs):
                if any(p.poll() is not None for p in self._procs) or time.monotonic() > deadline:
                    raise RuntimeError("bench: a host-speed sidecar did not start")
                time.sleep(0.02)
        except BaseException:
            self.stop()
            raise

    def stop(self) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
            proc.wait()

    def readings(self, lo: float, hi: float, slack: float = PERIOD_S) -> List[float]:
        """Kernel CPU seconds read between ``lo`` and ``hi``, all sidecars together."""
        lo, hi = lo + self._to_unix - slack, hi + self._to_unix + slack
        return [cpu_s for log in self._logs for stamp, cpu_s in _read(log) if lo <= stamp <= hi]

    def normalize(self, wall_s: float, lo: float, hi: float) -> float:
        """``wall_s``, spent between ``lo`` and ``hi``, at the reference host speed."""
        around = self.readings(lo, hi)
        if not around:
            raise RuntimeError("bench: no host-speed reading around the timed window")
        # what the sidecars took from each CPU in the window was not the program's
        taken = sum(self.readings(lo, hi, slack=0.0)) / len(self._logs)
        share = 1.0 - taken / (hi - lo)
        return wall_s * share * REFERENCE_S / statistics.fmean(around)


def _read(log: Path) -> List[Tuple[float, float]]:
    if not log.is_file():
        return []
    text = log.read_text()
    rows = (line.split() for line in text[: text.rfind("\n") + 1].splitlines())
    return [(float(stamp), float(cpu_s)) for stamp, cpu_s in rows]


if __name__ == "__main__":
    _sidecar(int(sys.argv[1]), sys.argv[2])
