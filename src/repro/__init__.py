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

from repro.utils.lazy import lazy_exports

__version__ = "1.29.0"

#: public name -> defining module, imported on first use (see
#: :mod:`repro.utils.lazy`): ``import repro.constants``-style imports do
#: not pull in the api subsystem
_EXPORTS = {
    "Simulation": "repro.api.simulation",
    "SimulationResult": "repro.api.simulation",
    **dict.fromkeys(
        (
            "SimulationConfig", "SystemConfig", "SCFConfig", "FieldConfig",
            "PropagationConfig", "BackendConfig", "ConfigError",
        ),
        "repro.api.config",
    ),
    "COMPONENTS": "repro.api.components",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
