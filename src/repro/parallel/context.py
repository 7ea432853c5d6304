"""Execution context binding one simulation to the simulated-MPI substrate.

:class:`ParallelContext` is what the :class:`~repro.api.simulation.
Simulation` facade builds from its ``[parallel]`` config section: one
:class:`~repro.parallel.comm.SimComm` (machine model + cost ledger) and
the :class:`~repro.parallel.distfock.DistributedFockExchange` factory
the Hamiltonian substitutes for the serial operator, whose per-rank
transform tally it windows per run.  :class:`ParallelRunInfo`
is the JSON-safe record of one run's communication accounting — the
``parallel`` block carried by results, checkpoints and ensemble records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.parallel.comm import SimComm
from repro.parallel.distfock import PATTERNS, DistributedFockExchange
from repro.parallel.ledger import CostLedger
from repro.parallel.machine import MachineSpec, machine_by_name
from repro.utils.validation import require


@dataclass
class ParallelRunInfo:
    """Communication accounting of one run under a ``[parallel]`` section.

    It keeps only what the run's config cannot say: ``ledger``, the
    modeled MPI time of *this run* (a delta, not the context's
    cumulative tally), and ``fft_rank_transforms``, the per-rank 3-D
    transform count of this run's distributed exchange work, a delta
    too — the load-balance view the per-category seconds cannot show.
    Ranks, pattern, machine and ``use_shm`` are the config's
    ``[parallel]`` section, and the node count is the machine's.
    """

    ledger: CostLedger = field(default_factory=CostLedger)
    fft_rank_transforms: Optional[List[int]] = None

    # -- JSON-safe IO --------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"ledger": self.ledger.to_dict()}
        if self.fft_rank_transforms is not None:
            out["fft_rank_transforms"] = [int(n) for n in self.fft_rank_transforms]
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ParallelRunInfo":
        """The block :meth:`to_dict` writes; a block of an earlier build
        also repeats the config's layout (``ranks``, ``pattern``,
        ``machine``, ``use_shm``, ``nodes``), which is ignored."""
        ranks = data.get("fft_rank_transforms")
        return cls(
            ledger=CostLedger.from_dict(dict(data.get("ledger", {}))),
            fft_rank_transforms=None if ranks is None else [int(n) for n in ranks],
        )

    def summary_lines(self, section) -> List[str]:
        """The ``parallel`` block of ``SimulationResult.summary()``;
        ``section`` is the run config's ``[parallel]`` section."""
        nodes = machine_by_name(section.machine).nodes(section.ranks)
        shm = "on" if section.use_shm else "off"
        lines = [
            f"parallel: ranks={section.ranks} pattern={section.pattern} "
            f"machine={section.machine} nodes={nodes} shm={shm}"
        ]
        lines.append(f"  comm (modeled s): {self.ledger.describe()}")
        if self.fft_rank_transforms:
            lines.append(
                "  exchange FFTs by rank: "
                + " ".join(str(n) for n in self.fft_rank_transforms)
            )
        return lines


class ParallelContext:
    """One simulation's simulated-MPI execution state.

    Owns the communicator (and through it the cumulative
    :class:`CostLedger`), keeps the exchange operator it builds for the
    Hamiltonian, and cuts per-run :class:`ParallelRunInfo` deltas of
    the ledger and that operator's rank tally for results.
    """

    def __init__(
        self,
        nranks: int,
        pattern: str,
        machine: "MachineSpec | str",
        use_shm: bool = True,
        ledger: Optional[CostLedger] = None,
    ) -> None:
        require(nranks >= 1, "need at least one rank")
        require(pattern in PATTERNS, f"unknown pattern {pattern!r}; use one of {PATTERNS}")
        self.machine = machine_by_name(machine) if isinstance(machine, str) else machine
        self.pattern = pattern
        self.use_shm = bool(use_shm)
        self.ledger = ledger if ledger is not None else CostLedger()
        self.comm = SimComm(nranks, self.machine, self.ledger)
        #: where this session's records start — everything before is the
        #: checkpoint-seeded history of a resumed run
        self.session_mark = self.ledger.mark()
        self._fock: Optional[DistributedFockExchange] = None

    def fock_operator(self, grid, kernel_g: np.ndarray, batch_size: int) -> DistributedFockExchange:
        """The distributed exchange executor the Hamiltonian plugs in."""
        self._fock = DistributedFockExchange(
            grid,
            kernel_g,
            self.comm,
            pattern=self.pattern,
            batch_size=batch_size,
            use_shm=self.use_shm,
        )
        return self._fock

    def session_ledger(self) -> CostLedger:
        """Only the records charged in *this* session (a resumed run's
        checkpoint-seeded history excluded) — the window matching this
        process's FFT counters."""
        return self.ledger.since_mark(self.session_mark)

    # -- run records -----------------------------------------------------------
    def mark(self) -> Tuple[int, Optional[List[int]]]:
        """Where a run starts, for :meth:`run_info`: the ledger mark and a
        copy of the exchange operator's rank tally (``None`` before it is
        built: a semilocal run has none)."""
        tally = None if self._fock is None else list(self._fock.rank_transforms)
        return self.ledger.mark(), tally

    def run_info(self, mark: Optional[Tuple[int, Optional[List[int]]]] = None) -> ParallelRunInfo:
        """A :class:`ParallelRunInfo` for everything since ``mark`` (see
        :meth:`mark`).  Without one it covers the whole ledger, a resumed
        run's checkpointed history included, and this session's rank
        tally — what a checkpoint carries."""
        ledger_mark, before = (0, None) if mark is None else mark
        _, ranks = self.mark()
        if ranks is not None and before is not None:
            ranks = [n - b for n, b in zip(ranks, before)]
        return ParallelRunInfo(self.ledger.since_mark(ledger_mark), ranks)
