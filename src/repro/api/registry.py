"""String-keyed component registries wiring config names to constructors.

Every pluggable piece of a simulation — the cell, the exchange-correlation
functional, the external field, and the propagator — resolves through a
:class:`Registry`, so a config file can say ``propagator = "ptim_ace"``
without importing anything.  New scenarios register one function::

    from repro.api import register_cell

    @register_cell("argon_fcc")
    def argon_fcc(lattice_constant=10.26):
        return UnitCell(...)

and every entry point (examples, tests, ``python -m repro``) can use it
immediately.  Built-in components are registered at the bottom of this
module; :func:`available_components` lists everything for the CLI and the
README table.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.api.config import RegistryError
from repro.grid.cell import silicon_cubic_cell, silicon_supercell
from repro.rt.field import GaussianLaserPulse, StaticKick, ZeroField
from repro.rt.ptcn import PTCNOptions, PTCNPropagator
from repro.rt.ptim import PTIMOptions, PTIMPropagator
from repro.rt.ptim_ace import PTIMACEOptions, PTIMACEPropagator
from repro.rt.rk4 import RK4Propagator
from repro.xc.hybrid import HybridFunctional, SemilocalFunctional


class Registry:
    """A named mapping from string keys to component factories."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Callable[..., Any]] = {}

    def register(self, name: str, factory: Optional[Callable[..., Any]] = None):
        """Register ``factory`` under ``name``; usable as a decorator."""

        def _add(fn: Callable[..., Any]) -> Callable[..., Any]:
            key = name.strip().lower()
            if key in self._entries:
                raise RegistryError(
                    f"{self.kind} {key!r} is already registered; "
                    f"unregister it first or pick another name"
                )
            self._entries[key] = fn
            return fn

        return _add if factory is None else _add(factory)

    def unregister(self, name: str) -> None:
        self._entries.pop(name.strip().lower(), None)

    def get(self, name: str) -> Callable[..., Any]:
        key = str(name).strip().lower()
        if key not in self._entries:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; registered: {', '.join(self.names())}"
            )
        return self._entries[key]

    def build(self, name: str, /, *args: Any, **kwargs: Any) -> Any:
        """Look up ``name`` and call its factory."""
        factory = self.get(name)
        try:
            return factory(*args, **kwargs)
        except TypeError as exc:
            raise RegistryError(
                f"bad parameters for {self.kind} {name!r}: {exc}"
            ) from exc

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        return str(name).strip().lower() in self._entries


#: the four component registries of the simulation facade
CELLS = Registry("cell")
FUNCTIONALS = Registry("functional")
FIELDS = Registry("field")
PROPAGATORS = Registry("propagator")


def register_cell(name: str, factory: Optional[Callable[..., Any]] = None):
    """Register a cell factory ``(**params) -> UnitCell``."""
    return CELLS.register(name, factory)


def register_functional(name: str, factory: Optional[Callable[..., Any]] = None):
    """Register a functional factory ``(**params) -> functional``."""
    return FUNCTIONALS.register(name, factory)


def register_field(name: str, factory: Optional[Callable[..., Any]] = None):
    """Register a field factory ``(**params) -> field`` (vector_potential/electric_field)."""
    return FIELDS.register(name, factory)


def register_propagator(name: str, factory: Optional[Callable[..., Any]] = None):
    """Register a propagator builder ``(ham, options_dict, **record_kwargs) -> propagator``."""
    return PROPAGATORS.register(name, factory)


def available_components() -> Dict[str, List[str]]:
    """Registered names per registry (CLI ``components`` / docs table)."""
    return {reg.kind: reg.names() for reg in (CELLS, FUNCTIONALS, FIELDS, PROPAGATORS)}


# --------------------------------------------------------------------------
# built-in components
# --------------------------------------------------------------------------

register_cell("silicon_cubic", silicon_cubic_cell)


@register_cell("silicon_supercell")
def _silicon_supercell(reps=(1, 1, 1), **kwargs):
    return silicon_supercell(tuple(int(r) for r in reps), **kwargs)


@register_functional("lda")
def _lda(**kwargs):
    return SemilocalFunctional(**kwargs)


@register_functional("hse")
def _hse(**kwargs):
    return HybridFunctional(**kwargs)


@register_functional("pbe0")
def _pbe0(**kwargs):
    kwargs.setdefault("name", "PBE0-LDA")
    return HybridFunctional(screened=False, **kwargs)


register_field("zero", ZeroField)
register_field("gaussian_pulse", GaussianLaserPulse)
register_field("static_kick", StaticKick)


#: each built-in propagator's options dataclass (``rk4`` takes none)
_OPTIONS = {"rk4": None, "ptim": PTIMOptions, "ptim_ace": PTIMACEOptions, "ptcn": PTCNOptions}


def propagator_options(propagator: str, options: Dict[str, Any]):
    """A built-in propagator's options object, built with no Hamiltonian
    so that ``repro validate`` and a run refuse bad options before any
    SCF (``None`` for ``rk4`` and for propagators registered elsewhere)."""
    key = str(propagator).strip().lower()
    options_cls = _OPTIONS.get(key)
    valid = set(getattr(options_cls, "__dataclass_fields__", ()))
    unknown = sorted(set(options) - valid)
    if unknown and key in _OPTIONS:
        raise RegistryError(
            f"unknown option(s) {', '.join(unknown)} for propagator "
            f"{key!r}; valid: {', '.join(sorted(valid)) or 'none'}"
        )
    return None if options_cls is None else options_cls(**options)


@register_propagator("rk4")
def _rk4(ham, options: Dict[str, Any], **record_kwargs):
    propagator_options("rk4", options)
    return RK4Propagator(ham, **record_kwargs)


@register_propagator("ptim")
def _ptim(ham, options: Dict[str, Any], **record_kwargs):
    return PTIMPropagator(ham, propagator_options("ptim", options), **record_kwargs)


@register_propagator("ptim_ace")
def _ptim_ace(ham, options: Dict[str, Any], **record_kwargs):
    return PTIMACEPropagator(ham, propagator_options("ptim_ace", options), **record_kwargs)


@register_propagator("ptcn")
def _ptcn(ham, options: Dict[str, Any], **record_kwargs):
    return PTCNPropagator(ham, propagator_options("ptcn", options), **record_kwargs)
