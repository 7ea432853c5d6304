"""repro: finite-temperature hybrid-functional rt-TDDFT (PT-IM) reproduction.

High-level entry point — the declarative facade (see :mod:`repro.api`)::

    from repro import Simulation
    result = Simulation.from_file("config.toml").run()

or on the command line: ``python -m repro run config.toml``.

Low-level building blocks remain public:

* :mod:`repro.backend` — the FFT engine (batched, counted 3-D
  transforms) behind every grid transform in the package;
* :mod:`repro.grid` — cells and plane-wave grids;
* :mod:`repro.hamiltonian` — the Kohn-Sham Hamiltonian with hybrid
  functionals (Fock exchange + ACE);
* :mod:`repro.scf` — ground-state solver (the rt-TDDFT initial state);
* :mod:`repro.rt` — the PT-IM / PT-IM-ACE / RK4 propagators;
* :mod:`repro.parallel` — the simulated-MPI substrate;
* :mod:`repro.perf` — the performance model regenerating the paper's
  evaluation figures and tables.
"""

__version__ = "1.24.0"

__all__ = [
    "Simulation",
    "SimulationResult",
    "SimulationConfig",
    "SystemConfig",
    "SCFConfig",
    "FieldConfig",
    "PropagationConfig",
    "BackendConfig",
    "ConfigError",
    "register_cell",
    "register_functional",
    "register_field",
    "register_propagator",
    "available_components",
]


def __getattr__(name: str):
    # lazy facade re-export: keeps `import repro.constants`-style imports
    # from pulling in the full api subsystem (and avoids import cycles
    # while the package initializes)
    if name in __all__:
        import repro.api as _api

        return getattr(_api, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
