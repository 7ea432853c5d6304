"""Content-addressed blob storage for ground states.

Layout inside a study directory::

    blobs/
      ground_states/<sha256>.npz     # one converged SCF per (system, scf,
                                     # backend-engine) group

Writing is idempotent: the address *is* the content identity, so putting
the same group's ground state twice touches one file
— a 500-variant sweep whose variants share one SCF stores exactly one
ground-state blob, however many runs reference it.  All writes are
atomic (temp file + rename) so a killed process never leaves a partial
blob under a valid address.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.api.config import SimulationConfig
from repro.store.common import group_address
from repro.utils.io import atomic_savez

if TYPE_CHECKING:
    from repro.scf.groundstate import GroundState

#: a blob's file name: its sha256 address; a writer killed mid-write leaves
#: ``.<address>.npz.tmp-<pid>.npz`` beside it, which is no blob
_BLOB_NAME = re.compile(r"[0-9a-f]{64}\.npz")


class BlobStore:
    """The ``blobs/`` tree of one study directory."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.ground_states_dir = self.root / "ground_states"

    # -- ground states -------------------------------------------------------
    def put_ground_state(self, config: SimulationConfig, gs: GroundState) -> str:
        """Store a group's converged SCF; returns the group address.

        The address hashes the *defining* content — the canonical
        (system, scf, backend-engine) sections — so every variant of a
        sweep group maps to the same single blob.
        """
        address = group_address(config)
        path = self.ground_state_path(address)
        if not path.exists():
            atomic_savez(path, **gs.to_arrays())
        return address

    def ground_state_path(self, address: str) -> Path:
        return self.ground_states_dir / f"{address}.npz"

    def get_ground_state(self, address: str) -> Optional[GroundState]:
        """The stored :class:`GroundState` at ``address`` (``None`` if absent)."""
        from repro.scf.groundstate import GroundState

        path = self.ground_state_path(address)
        if not path.exists():
            return None
        with np.load(path, allow_pickle=False) as data:
            return GroundState.from_arrays(data, f"ground-state blob {path}")

    def ground_state_for(self, config: SimulationConfig) -> Optional[GroundState]:
        """Group lookup by config (the resume/shared-SCF entry point)."""
        return self.get_ground_state(group_address(config))

    # -- inventory -----------------------------------------------------------
    def ground_state_addresses(self) -> List[str]:
        if not self.ground_states_dir.exists():
            return []
        return sorted(
            p.stem for p in self.ground_states_dir.glob("*.npz") if _BLOB_NAME.fullmatch(p.name)
        )

