"""``repro.api`` — the declarative front door to the whole package.

One import gives configs, registries, the :class:`Simulation` facade,
checkpointing, and the ensemble sweep engine (:class:`SweepConfig` +
:func:`run_ensemble` -> :class:`EnsembleResult` for whole families of
runs); ``python -m repro`` exposes the same surface on the command line,
including ``repro sweep``.  The low-level modules (:mod:`repro.scf`,
:mod:`repro.rt`, :mod:`repro.hamiltonian`, ...) remain fully supported
for custom wiring.
"""

from repro.api.config import (
    BackendConfig,
    ConfigError,
    FieldConfig,
    ParallelConfig,
    PropagationConfig,
    ResultError,
    SCFConfig,
    ServeConfig,
    SimulationConfig,
    SweepConfig,
    SystemConfig,
    load_serve_file,
    load_sweep_file,
)
from repro.api.ensemble import (
    EnsembleResult,
    FFTCoverage,
    RunRecord,
    SweepVariant,
    apply_overrides,
    expand_sweep,
    run_ensemble,
)
from repro.api.registry import (
    CELLS,
    FIELDS,
    FUNCTIONALS,
    PROPAGATORS,
    Registry,
    RegistryError,
    available_components,
    register_cell,
    register_field,
    register_functional,
    register_propagator,
)
from repro.api.simulation import Simulation, SimulationResult

#: re-exported lazily from :mod:`repro.store` — that package imports
#: :mod:`repro.api.simulation` to materialize stored runs, so a module-
#: level import here would re-enter a half-initialized ``repro.store``
#: whenever ``import repro.store`` comes first
_STORE_EXPORTS = ("ResultStore", "StoredRun", "StoreError")


def __getattr__(name):
    if name in _STORE_EXPORTS:
        import repro.store as _store

        return getattr(_store, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BackendConfig",
    "ConfigError",
    "ResultError",
    "ResultStore",
    "StoreError",
    "StoredRun",
    "FieldConfig",
    "ParallelConfig",
    "PropagationConfig",
    "SCFConfig",
    "ServeConfig",
    "SimulationConfig",
    "SweepConfig",
    "SystemConfig",
    "load_serve_file",
    "load_sweep_file",
    "EnsembleResult",
    "FFTCoverage",
    "RunRecord",
    "SweepVariant",
    "apply_overrides",
    "expand_sweep",
    "run_ensemble",
    "CELLS",
    "FIELDS",
    "FUNCTIONALS",
    "PROPAGATORS",
    "Registry",
    "RegistryError",
    "available_components",
    "register_cell",
    "register_field",
    "register_functional",
    "register_propagator",
    "Simulation",
    "SimulationResult",
]
