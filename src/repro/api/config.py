"""Declarative simulation configs: frozen dataclasses + dict/JSON/TOML IO.

A :class:`SimulationConfig` fully specifies a run — system, SCF, field,
propagation — and round-trips losslessly through ``to_dict`` /
``from_dict`` and through JSON/TOML files, so it doubles as provenance:
results and checkpoints embed the exact config that produced them.

Parsing is strict: unknown keys and invalid values raise
:class:`ConfigError` naming the offending dotted key (``system.ecut``,
``propagation.options`` ...) rather than silently ignoring typos.  Each
key is declared once, beside its default, with
:func:`~repro.utils.validation.setting` (kind, bounds, choices); one
checker refuses a value by that declaration, and a section's
``__post_init__`` keeps only what normalises a value or crosses keys.
Values are never coerced: ``3`` stays ``3``, so a config's hash is the
hash of what was written.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type, TypeVar

import numpy as np

from repro.constants import SPIN_DEGENERACY
from repro.parallel.comm import PATTERNS
from repro.parallel.machine import machine_by_name
from repro.utils.validation import ConfigError, check_settings, is_int, setting


class RegistryError(KeyError):
    """Unknown or duplicate registry key (message names the valid keys).

    Raised by :mod:`repro.api.registry`; defined here so that a caller
    can catch it without importing the registered components."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message readable
        return self.args[0]


class ResultError(ConfigError):
    """A result file is missing, unreadable, or from a newer format
    version; the message always names the offending path.

    Subclasses :class:`ConfigError` so existing handlers (and the CLI's
    ``ValueError`` net) keep working, while loaders can be precise."""


def open_result_npz(path):
    """Open a result ``.npz`` (run output, checkpoint, stored run) with
    readable failure modes.

    Missing files and corrupt/truncated archives raise
    :class:`ResultError` naming the path instead of surfacing raw
    ``FileNotFoundError`` / ``zipfile.BadZipFile`` tracebacks.
    """
    import zipfile

    path = Path(path)
    if not path.exists():
        raise ResultError(f"result file {path} does not exist")
    try:
        return np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise ResultError(
            f"{path} is not a readable result file (corrupt or not an .npz): {exc}"
        ) from exc


T = TypeVar("T", bound="_Section")


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class _Section:
    """Shared strict dict IO and declared-key check for one config section."""

    #: dotted prefix used in error messages ("system", "scf", ...)
    _context = "config"

    def __post_init__(self) -> None:
        check_settings(self, self._context)

    @classmethod
    def from_dict(cls: Type[T], data: Optional[Mapping[str, Any]]) -> T:
        data = dict(data or {})
        valid = {f.name for f in fields(cls) if not f.name.startswith("_")}
        unknown = sorted(set(data) - valid)
        _check(
            not unknown,
            f"unknown key(s) {', '.join(cls._context + '.' + k for k in unknown)}; "
            f"valid keys: {', '.join(sorted(valid))}",
        )
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(f"bad {cls._context} section: {exc}") from exc

    def to_dict(self) -> Dict[str, Any]:
        """Plain nested dict with JSON/TOML-safe values (``None`` dropped)."""
        out: Dict[str, Any] = {}
        for f in fields(self):
            if f.name.startswith("_"):
                continue
            value = getattr(self, f.name)
            if value is None:
                continue
            out[f.name] = _plain(value)
        return out


def overridden(section: T, **values: Any) -> T:
    """``section`` with each value that is not ``None`` in place of its
    key, refused by the key's declaration like a parsed one."""
    return dataclasses.replace(section, **{k: v for k, v in values.items() if v is not None})


def overrides_label(overrides: Dict[str, Any]) -> str:
    """Compact ``key=value`` tag of a sweep point's dotted ``overrides``
    (CLI tables, error lines), ``(base)`` for none."""
    if not overrides:
        return "(base)"
    return " ".join(f"{k.split('.')[-1]}={v!r}" for k, v in overrides.items())


def _plain(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _json_safe(value: Any) -> Any:
    """Coerce numpy scalars/arrays to builtins so configs stay JSON-able."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


@dataclass(frozen=True)
class SystemConfig(_Section):
    """What is simulated: cell, basis, functional.

    ``cell`` / ``functional`` are registry keys (see
    :mod:`repro.api.registry`); the ``*_params`` dicts are passed verbatim
    to the registered factory.  ``dual`` accepts only ``1`` (one grid
    carries orbitals and density) and stays a key because every config
    hash covers it.
    """

    _context = "system"

    cell: str = setting("silicon_cubic", str)
    cell_params: Dict[str, Any] = setting({}, dict)
    ecut: float = setting(3.0, float, lo=0, open=True)
    dual: int = setting(1, int, choices=(1,))
    functional: str = setting("hse", str)
    functional_params: Dict[str, Any] = setting({}, dict)
    degeneracy: float = setting(SPIN_DEGENERACY, float, lo=0, open=True)
    fock_batch_size: int = setting(16, int, lo=1)

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "cell_params", dict(self.cell_params))
        object.__setattr__(self, "functional_params", dict(self.functional_params))


@dataclass(frozen=True)
class SCFOptions:
    """Knobs of the ground-state solver, as :func:`repro.scf.run_scf`
    takes them: declared here, checked only by :class:`SCFConfig` (a
    solver test may ask for a tolerance that is never met)."""

    #: default: Ne/2 + Natom/2 extra (paper: tests)
    nbands: Optional[int] = setting(None, int, lo=1, optional=True, what="a positive band count")
    temperature_k: float = setting(8000.0, float, lo=0)
    density_tol: float = setting(1.0e-6, float, lo=0, open=True)
    exchange_tol: float = setting(1.0e-6, float, lo=0, open=True)
    max_scf: int = setting(60, int, lo=1)
    max_outer: int = setting(10, int, lo=1)
    davidson_tol: float = setting(1.0e-7, float, lo=0, open=True)
    mix_beta: float = setting(0.5, float, lo=0, hi=1, open=True)
    mix_history: int = setting(20, int, lo=1)
    seed: int = setting(7, int)


@dataclass(frozen=True)
class SCFConfig(_Section, SCFOptions):
    """The ``[scf]`` section: :class:`SCFOptions`' keys, checked, so a
    section is the options ``run_scf`` takes."""

    _context = "scf"


@dataclass(frozen=True)
class FieldConfig(_Section):
    """External driving field: a registry ``kind`` plus its parameters."""

    _context = "field"

    kind: str = setting("zero", str)
    params: Dict[str, Any] = setting({}, dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        params = dict(self.params)
        if "polarization" in params:
            params["polarization"] = tuple(params["polarization"])
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class PropagationConfig(_Section):
    """Real-time propagation: scheme, step, length, recording."""

    _context = "propagation"

    propagator: str = setting("ptim_ace", str)
    dt_as: float = setting(50.0, float, lo=0, open=True)
    n_steps: int = setting(10, int, lo=0)
    observe_every: int = setting(1, int, lo=1)
    track_sigma: Tuple[Tuple[int, int], ...] = setting((), tuple)
    record_energy: bool = setting(True, bool)
    options: Dict[str, Any] = setting({}, dict)

    def __post_init__(self) -> None:
        super().__post_init__()
        try:
            pairs = tuple((i, j) for i, j in self.track_sigma)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"propagation.track_sigma must be a list of (i, j) index pairs, "
                f"got {self.track_sigma!r}"
            ) from exc
        _check(
            all(is_int(index) and index >= 0 for pair in pairs for index in pair),
            f"propagation.track_sigma indices must be integers >= 0, got {self.track_sigma!r}",
        )
        object.__setattr__(self, "track_sigma", pairs)
        object.__setattr__(self, "options", dict(self.options))


@dataclass(frozen=True)
class BackendConfig(_Section):
    """FFT engine settings (see :mod:`repro.backend`).

    ``name`` is fixed to ``"numpy"``, the one engine, and anything else
    is refused at parse time: the key stays because it is part of every
    stored ground state's address and of every config hash.
    ``fft_workers`` sets the transform thread count (wall time only: a
    band's result does not depend on it).  ``count_ffts`` is fixed to
    ``true`` in the same way as ``name``: the engine always carries its
    :class:`~repro.backend.FFTCounters` (how perf results tie back to the
    paper's analytic FFT tallies).
    """

    _context = "backend"

    name: str = setting("numpy", str, choices=("numpy",))
    fft_workers: int = setting(1, int, lo=1)
    count_ffts: bool = setting(True, bool, choices=(True,))


@dataclass(frozen=True)
class ParallelConfig(_Section):
    """Simulated-MPI execution (see :mod:`repro.parallel`).

    ``ranks`` band-shards the Fock-exchange work over a
    :class:`~repro.parallel.comm.SimComm`; ``pattern`` picks the paper's
    Fig. 5 communication schedule (``bcast``, ``ring``, ``async-ring``);
    ``machine`` selects the hardware cost model charged to the
    :class:`~repro.parallel.ledger.CostLedger`; ``use_shm`` models
    node-shared N x N matrices (allreduces join one rank per node,
    Sec. IV-B3).  Results are bit-identical to the serial path at every
    rank count and pattern — only the communication accounting differs.

    The section is *active* when ``ranks > 1``, or at any rank count
    when ``enabled = true`` (useful to exercise the distributed code
    path at one rank).  ``enabled = false`` forces the serial path
    regardless of ``ranks``.
    """

    _context = "parallel"

    ranks: int = setting(1, int, lo=1)
    pattern: str = setting("ring", str, choices=PATTERNS)
    machine: str = setting("fugaku-arm", str)
    use_shm: bool = setting(True, bool)
    enabled: Optional[bool] = setting(None, bool, optional=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        try:
            spec = machine_by_name(self.machine)
        except KeyError as exc:
            raise ConfigError(f"parallel.machine: {exc.args[0]}") from exc
        # canonicalize aliases ("arm" -> "fugaku-arm") for provenance
        object.__setattr__(self, "machine", spec.name)

    @property
    def active(self) -> bool:
        """Whether this section routes exchange through ``repro.parallel``."""
        if self.enabled is not None:
            return self.enabled
        return self.ranks > 1


@dataclass(frozen=True)
class SweepConfig(_Section):
    """Declarative multi-run sweep: config axes crossed into a grid.

    ``axes`` maps dotted config paths to the list of values each run
    takes, e.g. ``{"field.params.kick": [0.01, 0.02],
    "propagation.propagator": ["ptim", "ptcn"]}``.  ``mode = "grid"``
    (default) takes the cartesian product of all axes; ``"zip"`` pairs
    them element-wise (all axes must then have equal length).

    ``workers`` is how many processes compute when
    :func:`repro.api.ensemble.run_ensemble` executes the expanded runs:
    1 (the default) is the calling process alone, N the calling process
    and N - 1 spawned worker processes.

    ``store`` (or ``repro sweep --store DIR``) points at a
    :class:`repro.store.ResultStore` study directory, the one place a
    sweep persists: finished runs are appended to it as they complete,
    and re-running the sweep *resumes* it — variants already completed
    in the store (matched by config hash) are restored instead of
    recomputed, and their shared ground states are read back from the
    store's content-addressed blobs.
    """

    _context = "sweep"

    axes: Dict[str, Any] = setting({}, dict)
    mode: str = setting("grid", str, choices=("grid", "zip"))
    workers: int = setting(1, int, lo=1)
    store: Optional[str] = setting(None, str, optional=True)

    def __post_init__(self) -> None:
        super().__post_init__()
        axes: Dict[str, Tuple[Any, ...]] = {}
        for path, values in self.axes.items():
            _check(
                isinstance(path, str) and "." in path,
                f"sweep.axes key {path!r} must be a dotted config path like 'field.params.kick'",
            )
            if isinstance(values, np.ndarray):
                values = values.tolist()
            _check(
                isinstance(values, (list, tuple)) and len(values) > 0,
                f"sweep.axes.{path} must be a non-empty list of values, got {values!r}",
            )
            # numpy scalars (np.arange sweeps ...) are coerced to builtins
            # here, or they would crash JSON serialization only after the
            # expensive runs have already happened
            axes[path] = tuple(_json_safe(v) for v in values)
        if self.mode == "zip" and axes:
            lengths = {len(v) for v in axes.values()}
            _check(
                len(lengths) == 1,
                f"sweep.mode = 'zip' needs equal-length axes, got lengths "
                f"{ {path: len(v) for path, v in axes.items()} }",
            )
        object.__setattr__(self, "axes", axes)

    @property
    def n_runs(self) -> int:
        """How many simulations the sweep expands to."""
        if not self.axes:
            return 1
        sizes = [len(v) for v in self.axes.values()]
        if self.mode == "zip":
            return sizes[0]
        n = 1
        for s in sizes:
            n *= s
        return n


@dataclass(frozen=True)
class ServeConfig(_Section):
    """``repro serve`` settings: bind address, worker pool, job policy.

    Lives in a ``[serve]`` section of an ordinary config file but —
    like ``[sweep]`` — is *not* part of :class:`SimulationConfig`:
    where a service listens or how many workers it runs must not
    perturb the content hash of the simulations it executes.

    ``timeout`` is the per-job wall-clock budget in seconds (0 disables
    it); ``retries`` is how many *attempts* a job gets before it lands
    in ``error`` (crashes and timeouts count); ``backoff`` seeds the
    exponential delay between retries.
    """

    _context = "serve"

    host: str = setting("127.0.0.1", str)
    port: int = setting(8752, int, lo=0, hi=65535)
    workers: int = setting(2, int, lo=1)
    timeout: float = setting(0.0, float, lo=0)
    retries: int = setting(3, int, lo=1)
    backoff: float = setting(0.5, float, lo=0)
    store: Optional[str] = setting(None, str, optional=True)


def load_serve_file(path) -> Tuple["SimulationConfig", ServeConfig]:
    """Read a serve config: ordinary simulation sections + ``[serve]``.

    The simulation sections define the server's *default* job (what
    ``repro submit`` sends when pointed at the same file); a ``[sweep]``
    section, if present, is tolerated and dropped so one file can drive
    both ``repro sweep`` and ``repro serve``.
    """
    data = dict(_read_config_file(path))
    serve = ServeConfig.from_dict(data.pop("serve", None))
    data.pop("sweep", None)
    return SimulationConfig.from_dict(data), serve


def check_config_matches(
    found: "SimulationConfig",
    expected: Optional["SimulationConfig"],
    path,
) -> None:
    """Raise :class:`ConfigError` if ``found`` differs from ``expected``.

    ``expected = None`` skips the check; the message names the dotted
    keys on which the config embedded in the result file at ``path``
    disagrees with the expectation.
    """
    if expected is None or found == expected:
        return
    diff = found.diff(expected)
    shown = "; ".join(diff[:6]) + (" ..." if len(diff) > 6 else "")
    raise ConfigError(
        f"result file {path} was produced by a different config; "
        f"mismatched key(s): {shown}"
    )


def load_sweep_file(path) -> Tuple["SimulationConfig", SweepConfig]:
    """Read a ``.toml``/``.json`` sweep file: base sections + ``[sweep]``.

    The file is an ordinary simulation config with one extra ``sweep``
    section; returns ``(base_config, sweep_config)``.  A file without a
    ``sweep`` section yields a single-run sweep (useful for smoke tests).
    """
    data = dict(_read_config_file(path))
    sweep = SweepConfig.from_dict(data.pop("sweep", None))
    # a [serve] section is dropped, mirroring load_serve_file dropping
    # [sweep] — one file can drive run, sweep, serve, and submit
    data.pop("serve", None)
    return SimulationConfig.from_dict(data), sweep


def _read_config_file(path) -> Dict[str, Any]:
    """Parse a ``.toml``/``.json`` file into a plain dict (strict errors)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".toml":
        import tomllib

        try:
            return tomllib.loads(path.read_text())
        except tomllib.TOMLDecodeError as exc:
            raise ConfigError(f"invalid TOML in {path}: {exc}") from exc
    if suffix == ".json":
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    raise ConfigError(
        f"unsupported config format {suffix!r} for {path}; use .toml or .json"
    )


@dataclass(frozen=True)
class SimulationConfig:
    """One declarative run: system + scf + field + propagation.

    Build from python dicts (:meth:`from_dict`), JSON/TOML files
    (:meth:`from_file`), or directly from the section dataclasses.
    """

    # NB: dataclasses.field spelled out — the `field:` attribute below would
    # shadow the helper for the lines after it inside this class body
    system: SystemConfig = dataclasses.field(default_factory=SystemConfig)
    scf: SCFConfig = dataclasses.field(default_factory=SCFConfig)
    field: FieldConfig = dataclasses.field(default_factory=FieldConfig)
    propagation: PropagationConfig = dataclasses.field(default_factory=PropagationConfig)
    backend: BackendConfig = dataclasses.field(default_factory=BackendConfig)
    parallel: ParallelConfig = dataclasses.field(default_factory=ParallelConfig)

    _SECTIONS = {
        "system": SystemConfig,
        "scf": SCFConfig,
        "field": FieldConfig,
        "propagation": PropagationConfig,
        "backend": BackendConfig,
        "parallel": ParallelConfig,
    }

    def __post_init__(self) -> None:
        for name, cls in self._SECTIONS.items():
            value = getattr(self, name)
            if isinstance(value, Mapping):
                object.__setattr__(self, name, cls.from_dict(value))
            elif not isinstance(value, cls):
                raise ConfigError(
                    f"config section {name!r} must be a mapping or {cls.__name__}, "
                    f"got {type(value).__name__}"
                )

    # -- construction -------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        _check(isinstance(data, Mapping), f"config must be a mapping, got {type(data).__name__}")
        unknown = sorted(set(data) - set(cls._SECTIONS))
        _check(
            not unknown,
            f"unknown config section(s) {', '.join(unknown)}; "
            f"valid sections: {', '.join(cls._SECTIONS)}",
        )
        return cls(**{name: sec.from_dict(data.get(name)) for name, sec in cls._SECTIONS.items()})

    @classmethod
    def from_file(cls, path) -> "SimulationConfig":
        """Load from ``.toml`` (via :mod:`tomllib`) or ``.json``."""
        return cls.from_dict(_read_config_file(path))

    @classmethod
    def from_json(cls, text: str) -> "SimulationConfig":
        return cls.from_dict(json.loads(text))

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {name: getattr(self, name).to_dict() for name in self._SECTIONS}

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    # -- comparison ---------------------------------------------------------
    def diff(self, other: "SimulationConfig") -> List[str]:
        """Dotted keys on which the two configs disagree (both sides listed).

        Empty when the configs are equal; used by the result-file reader
        to explain *why* a file was rejected.
        """
        out: List[str] = []

        def _walk(prefix: str, a: Any, b: Any) -> None:
            if isinstance(a, dict) and isinstance(b, dict):
                for key in sorted(set(a) | set(b)):
                    _walk(
                        f"{prefix}.{key}" if prefix else key,
                        a.get(key, "<missing>"),
                        b.get(key, "<missing>"),
                    )
            elif a != b:
                out.append(f"{prefix} ({a!r} != {b!r})")

        _walk("", self.to_dict(), other.to_dict())
        return out

    # -- derivation ---------------------------------------------------------
    def replace(self, **sections) -> "SimulationConfig":
        """New config with whole sections replaced or updated by dict.

        ``cfg.replace(propagation={"propagator": "rk4"})`` merges the dict
        over the existing section; passing a section dataclass replaces it
        wholesale.
        """
        unknown = sorted(set(sections) - set(self._SECTIONS))
        _check(
            not unknown,
            f"unknown config section(s) {', '.join(unknown)}; "
            f"valid sections: {', '.join(self._SECTIONS)}",
        )
        updates: Dict[str, Any] = {}
        for name, value in sections.items():
            cls = self._SECTIONS[name]
            if isinstance(value, cls):
                updates[name] = value
            elif isinstance(value, Mapping):
                merged = {**getattr(self, name).to_dict(), **dict(value)}
                # an explicit None clears an optional key (e.g. scf.nbands)
                merged = {k: v for k, v in merged.items() if v is not None}
                updates[name] = cls.from_dict(merged)
            else:
                raise ConfigError(
                    f"config section {name!r} must be a mapping or {cls.__name__}, "
                    f"got {type(value).__name__}"
                )
        return dataclasses.replace(self, **updates)
