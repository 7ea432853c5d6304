"""The components a config names: one closed table, read without the physics.

A run names four components: ``system.cell``, ``system.functional``,
``field.kind`` and ``propagation.propagator``.  :data:`COMPONENTS` maps
each kind's names to where their factories live (``"module:attribute"``,
as :mod:`repro.utils.lazy` maps names to modules), so the config's
declared ``choices`` and ``repro components`` read it without importing
any physics, and an unknown name is refused when the config is parsed —
in a file, on the command line, in a sweep axis or by ``POST /jobs``.
:func:`build` imports the one factory a run needs and calls it.

The table is closed: a component is one entry here beside its factory,
not something registered at run time.  A config's hash names its whole
trajectory, so a name must mean the same factory in every process that
reads it — a spawned sweep worker and the job service, which parses
configs without the physics, never see what a caller registered in its
own ``main()``.
"""

from __future__ import annotations

import importlib
from dataclasses import fields
from typing import Any, Callable, Dict, Mapping

from repro.utils.validation import ConfigError

#: kind -> component name -> ``"module:attribute"`` of its factory
COMPONENTS: Dict[str, Dict[str, str]] = {
    "cell": {
        "silicon_cubic": "repro.grid.cell:silicon_cubic_cell",
        "silicon_supercell": "repro.grid.cell:silicon_supercell",
    },
    "functional": {
        "lda": "repro.xc.hybrid:SemilocalFunctional",
        "hse": "repro.xc.hybrid:HybridFunctional",
        "pbe0": "repro.xc.hybrid:pbe0",
    },
    "field": {
        "zero": "repro.rt.field:ZeroField",
        "gaussian_pulse": "repro.rt.field:GaussianLaserPulse",
        "static_kick": "repro.rt.field:StaticKick",
    },
    "propagator": {
        "rk4": "repro.rt.rk4:RK4Propagator",
        "ptim": "repro.rt.ptim:PTIMPropagator",
        "ptim_ace": "repro.rt.ptim_ace:PTIMACEPropagator",
        "ptcn": "repro.rt.ptcn:PTCNPropagator",
    },
}

#: kind -> the config key whose table a factory is called with
PARAMS_KEY = {
    "cell": "system.cell_params",
    "functional": "system.functional_params",
    "field": "field.params",
    "propagator": "propagation.options",
}


def factory(kind: str, name: str) -> Callable[..., Any]:
    """The factory of ``kind`` component ``name``, its module imported."""
    module, _, attribute = COMPONENTS[kind][name].partition(":")
    return getattr(importlib.import_module(module), attribute)


def build(kind: str, name: str, /, *args: Any, **params: Any) -> Any:
    """``kind`` component ``name``, built by its factory; what the factory
    refuses (a ``TypeError`` or ``ValueError``) is a :class:`ConfigError`
    naming the component and the config key of its params."""
    make = factory(kind, name)
    try:
        return make(*args, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"{PARAMS_KEY[kind]}: bad parameters for {kind} {name!r}: {exc}"
        ) from exc


def propagator_options(name: str, options: Mapping[str, Any]):
    """Propagator ``name``'s options object (its class's ``options_class``;
    ``None`` for one that takes none), built with no Hamiltonian so that
    ``repro validate`` and a run refuse bad options before any SCF."""
    options_class = factory("propagator", name).options_class
    valid = {f.name for f in fields(options_class)} if options_class else set()
    unknown = sorted(set(options) - valid)
    if unknown:
        raise ConfigError(
            f"unknown option(s) {', '.join(unknown)} in propagation.options for "
            f"propagator {name!r}; valid: {', '.join(sorted(valid)) or 'none'}"
        )
    return None if options_class is None else options_class(**options)
