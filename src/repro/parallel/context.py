"""Execution context binding one simulation to the simulated-MPI substrate.

:class:`ParallelContext` is what the :class:`~repro.api.simulation.
Simulation` facade builds from its ``[parallel]`` config section: one
:class:`~repro.parallel.comm.SimComm` (the machine model) and the
:class:`~repro.parallel.distfock.DistributedFockExchange` factory the
Hamiltonian substitutes for the serial operator.  Both count into the
process's tally (:mod:`repro.trace`); :class:`ParallelRunInfo` is the
JSON-safe record of one run's slice of it — the ``parallel`` block
carried by results, checkpoints and ensemble records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.hamiltonian.fock import rank_transforms
from repro.parallel.comm import SimComm
from repro.parallel.distfock import DistributedFockExchange
from repro.parallel.ledger import CostLedger
from repro.parallel.machine import MachineSpec, machine_by_name
from repro.trace import Tally, window
from repro.utils.validation import require


@dataclass
class ParallelRunInfo:
    """Communication accounting of one run under a ``[parallel]`` section.

    It keeps only what the run's config cannot say, both read off the
    run's slice of the tally: ``ledger``, the modeled MPI time of *this
    run*, and ``fft_rank_transforms``, the per-rank 3-D transform count
    of its distributed exchange work — the load-balance view the
    per-category seconds cannot show.
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

    Owns the communicator, keeps the exchange operator it builds for the
    Hamiltonian, and reads per-run :class:`ParallelRunInfo` off slices of
    the process's tally, from the window opened when it was built (its
    session) on.
    """

    def __init__(
        self,
        nranks: int,
        pattern: str,
        machine: "MachineSpec | str",
        use_shm: bool = True,
        history: Optional[CostLedger] = None,
    ) -> None:
        require(nranks >= 1, "need at least one rank")
        self.machine = machine_by_name(machine) if isinstance(machine, str) else machine
        self.pattern = pattern
        self.use_shm = bool(use_shm)
        self.comm = SimComm(nranks, self.machine)
        #: the checkpointed communication a resumed run continues from
        self.history = history if history is not None else CostLedger()
        self.session = window()
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
        """Only what was charged in *this* session, since the context was
        built (a resumed run's checkpointed history excluded)."""
        return CostLedger(self.session())

    def run_info(self, tally: Optional[Tally] = None) -> ParallelRunInfo:
        """A :class:`ParallelRunInfo` of one run's slice of the tally.
        Without one it covers the session and a resumed run's checkpointed
        history — what a checkpoint carries.  The rank tally is ``None``
        until the exchange operator is built: a semilocal run has none."""
        if tally is None:
            tally = self.session()
            tally.merge(self.history.tally)
        ranks = None
        if self._fock is not None:
            ranks = [tally.counts.get(rank_transforms(r), 0) for r in range(self.comm.nranks)]
        return ParallelRunInfo(CostLedger(tally), ranks)
