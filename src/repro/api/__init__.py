"""``repro.api`` — the declarative front door to the whole package.

One import gives configs, the component table (:data:`COMPONENTS`,
every name a config's ``system.cell``, ``system.functional``,
``field.kind`` and ``propagation.propagator`` can take, and
:func:`build`), the :class:`Simulation` facade, checkpointing, and the
ensemble sweep engine (:class:`SweepConfig` +
:func:`run_ensemble` -> :class:`EnsembleResult` for whole families of
runs); ``python -m repro`` exposes the same surface on the command line,
including ``repro sweep``.  The low-level modules (:mod:`repro.scf`,
:mod:`repro.rt`, :mod:`repro.hamiltonian`, ...) remain fully supported
for custom wiring.

Only a process that computes imports the physics: the Fock/SCF/propagator
stack on numpy and pocketfft's extension, which :mod:`repro.backend.base`
loads without any SciPy package.  Each name here is imported on first use
(:mod:`repro.utils.lazy`), so configs, the result store and the job
service are reached without it; :mod:`repro.api.simulation`,
:mod:`repro.api.ensemble` and :mod:`repro.serve.worker` import it,
because whoever imports them computes.
"""

from repro.utils.lazy import lazy_exports

#: public name -> defining module, imported on first use
_EXPORTS = {
    **dict.fromkeys(
        (
            "BackendConfig", "ConfigError", "FieldConfig", "ParallelConfig",
            "PropagationConfig", "ResultError", "SCFConfig", "ServeConfig",
            "SimulationConfig", "SweepConfig", "SystemConfig", "load_serve_file",
            "load_sweep_file",
        ),
        ".config",
    ),
    **dict.fromkeys(
        (
            "EnsembleResult", "FFTCoverage", "RunRecord",
            "apply_overrides", "expand_sweep", "run_ensemble",
        ),
        ".ensemble",
    ),
    **dict.fromkeys(("COMPONENTS", "build"), ".components"),
    "Simulation": ".simulation",
    "SimulationResult": ".simulation",
    **dict.fromkeys(("ResultStore", "StoredRun", "StoreError"), "repro.store"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = sorted(_EXPORTS)
