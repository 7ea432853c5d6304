"""Generate the golden-trajectory reference files in ``tests/golden/``.

One tiny deterministic run per registered propagator: the LDA group
(rk4, ptim, ptcn) shares one ground state, PT-IM-ACE runs on a small
screened-hybrid ground state so the dense-Fock -> ACE path is locked in
too.  Each group's SCF is converged *once, here*, and committed as
``gs_lda.npz`` / ``gs_hse.npz`` (``GroundState.to_arrays`` plus the
group's store key: ``system`` + ``scf`` + engine name): an SCF re-converged on
another host lands 1e-6 away, which no 1e-10 trajectory gate survives.
Every trajectory is then propagated from the state *as loaded from that
file*.  Each trajectory ``.npz`` stores the exact config (JSON) plus the
observable series; ``tests/test_golden_trajectories.py`` re-propagates
every config from the committed states and asserts the
dipole/energy/sigma series match to 1e-10, so a perf refactor can never
silently change the numbers.

Regenerate (only when a change *intentionally* alters trajectories or
the ground state)::

    PYTHONPATH=src python tests/make_golden.py

and commit the updated files together with the change that justifies
them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).parent / "golden"

#: schema version stamped into every golden file
GOLDEN_VERSION = 1

#: trajectory keys compared against the golden files (tolerance 1e-10)
COMPARED_KEYS = ("times", "dipole", "energy", "particle_number", "sigma_0_2", "sigma_3_3")

_LDA_BASE = {
    "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "lda"},
    "scf": {"nbands": 20, "temperature_k": 8000.0, "density_tol": 1e-6, "max_scf": 60},
    "field": {"kind": "static_kick", "params": {"kick": 2e-3}},
}

_HSE_BASE = {
    "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "hse"},
    "scf": {
        "nbands": 20,
        "temperature_k": 8000.0,
        "density_tol": 1e-5,
        "exchange_tol": 1e-5,
        "max_scf": 30,
        "max_outer": 12,
    },
    "field": {"kind": "static_kick", "params": {"kick": 2e-3}},
}

_TRACK = [[0, 2], [3, 3]]

#: one full config per registered propagator (the goldens' source of truth)
CONFIGS = {
    "rk4": {
        **_LDA_BASE,
        "propagation": {"propagator": "rk4", "dt_as": 1.0, "n_steps": 4,
                        "track_sigma": _TRACK},
    },
    "ptim": {
        **_LDA_BASE,
        "propagation": {"propagator": "ptim", "dt_as": 25.0, "n_steps": 3,
                        "track_sigma": _TRACK, "options": {"density_tol": 1e-8}},
    },
    "ptcn": {
        **_LDA_BASE,
        "propagation": {"propagator": "ptcn", "dt_as": 25.0, "n_steps": 3,
                        "track_sigma": _TRACK, "options": {"density_tol": 1e-8}},
    },
    "ptim_ace": {
        **_HSE_BASE,
        "propagation": {"propagator": "ptim_ace", "dt_as": 25.0, "n_steps": 2,
                        "track_sigma": _TRACK,
                        "options": {"density_tol": 1e-7, "exchange_tol": 1e-7}},
    },
}


def golden_path(propagator: str) -> Path:
    return GOLDEN_DIR / f"{propagator}.npz"


def ground_state_path(config: dict) -> Path:
    """The committed ground state of ``config``'s (system, scf) group."""
    return GOLDEN_DIR / f"gs_{config['system']['functional']}.npz"


def group_key(config: dict) -> str:
    """What a committed ground state was converged for: the store's group
    key (system + scf + engine name)."""
    from repro.api import SimulationConfig
    from repro.store.common import group_key

    return group_key(SimulationConfig.from_dict(config))


def load_ground_state(config: dict):
    """``config``'s committed ground state; a changed group means regenerate."""
    from repro.scf.groundstate import GroundState

    path = ground_state_path(config)
    with np.load(path, allow_pickle=False) as data:
        if str(data["group_key"]) != group_key(config):
            raise ValueError(
                f"{path} was converged for a different system/scf section than "
                f"tests/make_golden.py now specifies; regenerate the goldens"
            )
        return GroundState.from_arrays(data, path)


def run_config(config: dict):
    """Propagate one golden config from its committed ground state."""
    from repro.api import Simulation

    return Simulation(config, ground_state=load_ground_state(config)).run().observables()


def main() -> None:
    from repro.api import Simulation, SimulationConfig

    GOLDEN_DIR.mkdir(exist_ok=True)
    # one SCF per group; a config whose system/scf differs from its group's
    # committed state fails in load_ground_state below
    for path, config in {ground_state_path(c): c for c in CONFIGS.values()}.items():
        print(f"converging ground state {path.name} ...")
        gs = Simulation(config).ground_state()
        np.savez_compressed(path, group_key=np.str_(group_key(config)), **gs.to_arrays())
        print(f"  wrote {path} ({path.stat().st_size} bytes, converged={gs.converged})")
    for name, config in CONFIGS.items():
        print(f"generating golden trajectory for {name} ...")
        arrays = run_config(config)
        payload = {
            "golden_version": np.int64(GOLDEN_VERSION),
            "config_json": np.str_(SimulationConfig.from_dict(config).to_json()),
        }
        for key in COMPARED_KEYS:
            payload[key] = arrays[key]
        path = golden_path(name)
        np.savez_compressed(path, **payload)
        print(f"  wrote {path} ({path.stat().st_size} bytes, "
              f"{len(arrays['times'])} samples)")


if __name__ == "__main__":
    main()
