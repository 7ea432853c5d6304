"""Declarative simulation configs: frozen dataclasses + dict/JSON/TOML IO.

A :class:`SimulationConfig` fully specifies a run — system, SCF, field,
propagation — and round-trips losslessly through ``to_dict`` /
``from_dict`` and through JSON/TOML files, so it doubles as provenance:
results and checkpoints embed the exact config that produced them.

Parsing is strict: unknown keys and invalid values raise
:class:`ConfigError` naming the offending dotted key (``system.ecut``,
``propagation.options`` ...) rather than silently ignoring typos.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Type, TypeVar

import numpy as np

from repro.constants import SPIN_DEGENERACY
from repro.utils.validation import is_int


class ConfigError(ValueError):
    """Invalid simulation config; the message names the bad key."""


class ResultError(ConfigError):
    """A result/ensemble file is missing, unreadable, or from a newer
    format version; the message always names the offending path.

    Subclasses :class:`ConfigError` so existing handlers (and the CLI's
    ``ValueError`` net) keep working, while loaders can be precise."""


def open_result_npz(path, kind: str):
    """Open an ``.npz`` artifact with readable failure modes.

    Missing files and corrupt/truncated archives raise
    :class:`ResultError` naming the path and the artifact ``kind``
    (``"result"``, ``"ensemble"``, ...) instead of surfacing raw
    ``FileNotFoundError`` / ``zipfile.BadZipFile`` tracebacks.
    """
    import zipfile

    path = Path(path)
    if not path.exists():
        raise ResultError(f"{kind} file {path} does not exist")
    try:
        return np.load(path, allow_pickle=False)
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise ResultError(
            f"{path} is not a readable {kind} file (corrupt or not an .npz): {exc}"
        ) from exc


T = TypeVar("T", bound="_Section")


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


@dataclass(frozen=True)
class _Section:
    """Shared strict dict IO for one config section."""

    #: dotted prefix used in error messages ("system", "scf", ...)
    _context = "config"

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

    cell: str = "silicon_cubic"
    cell_params: Dict[str, Any] = field(default_factory=dict)
    ecut: float = 3.0
    dual: int = 1
    functional: str = "hse"
    functional_params: Dict[str, Any] = field(default_factory=dict)
    degeneracy: float = SPIN_DEGENERACY
    fock_batch_size: int = 16

    def __post_init__(self) -> None:
        _check(isinstance(self.cell, str) and self.cell != "", "system.cell must be a non-empty string")
        _check(isinstance(self.functional, str) and self.functional != "", "system.functional must be a non-empty string")
        _check(self.ecut > 0.0, f"system.ecut must be positive, got {self.ecut}")
        _check(
            is_int(self.dual) and self.dual == 1,
            f"system.dual must be 1 (one grid carries orbitals and density), got {self.dual!r}",
        )
        _check(self.degeneracy > 0.0, f"system.degeneracy must be positive, got {self.degeneracy}")
        _check(
            is_int(self.fock_batch_size) and self.fock_batch_size >= 1,
            f"system.fock_batch_size must be an integer >= 1, got {self.fock_batch_size!r}",
        )
        object.__setattr__(self, "cell_params", dict(self.cell_params))
        object.__setattr__(self, "functional_params", dict(self.functional_params))


@dataclass(frozen=True)
class SCFConfig(_Section):
    """Ground-state solver knobs (mirror of :class:`repro.scf.SCFOptions`)."""

    _context = "scf"

    nbands: Optional[int] = None
    temperature_k: float = 8000.0
    density_tol: float = 1.0e-6
    exchange_tol: float = 1.0e-6
    max_scf: int = 60
    max_outer: int = 10
    davidson_tol: float = 1.0e-7
    mix_beta: float = 0.5
    mix_history: int = 20
    seed: int = 7

    def __post_init__(self) -> None:
        if self.nbands is not None:
            _check(
                is_int(self.nbands) and self.nbands > 0,
                f"scf.nbands must be a positive integer, got {self.nbands!r}",
            )
        _check(self.temperature_k >= 0.0, f"scf.temperature_k must be >= 0, got {self.temperature_k}")
        _check(self.density_tol > 0.0, f"scf.density_tol must be positive, got {self.density_tol}")
        _check(self.exchange_tol > 0.0, f"scf.exchange_tol must be positive, got {self.exchange_tol}")
        _check(self.davidson_tol > 0.0, f"scf.davidson_tol must be positive, got {self.davidson_tol}")
        _check(0.0 < self.mix_beta <= 1.0, f"scf.mix_beta must be in (0, 1], got {self.mix_beta}")
        for key in ("mix_history", "max_scf", "max_outer"):
            value = getattr(self, key)
            _check(is_int(value) and value >= 1, f"scf.{key} must be an integer >= 1, got {value!r}")
        _check(is_int(self.seed), f"scf.seed must be an integer, got {self.seed!r}")

    def to_options(self):
        """The low-level :class:`repro.scf.SCFOptions` equivalent."""
        from repro.scf.groundstate import SCFOptions

        return SCFOptions(**{f.name: getattr(self, f.name) for f in fields(self)})


@dataclass(frozen=True)
class FieldConfig(_Section):
    """External driving field: a registry ``kind`` plus its parameters."""

    _context = "field"

    kind: str = "zero"
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check(isinstance(self.kind, str) and self.kind != "", "field.kind must be a non-empty string")
        params = dict(self.params)
        if "polarization" in params:
            params["polarization"] = tuple(params["polarization"])
        object.__setattr__(self, "params", params)


@dataclass(frozen=True)
class PropagationConfig(_Section):
    """Real-time propagation: scheme, step, length, recording."""

    _context = "propagation"

    propagator: str = "ptim_ace"
    dt_as: float = 50.0
    n_steps: int = 10
    observe_every: int = 1
    track_sigma: Tuple[Tuple[int, int], ...] = ()
    record_energy: bool = True
    options: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check(isinstance(self.propagator, str) and self.propagator != "", "propagation.propagator must be a non-empty string")
        _check(self.dt_as > 0.0, f"propagation.dt_as must be positive, got {self.dt_as}")
        _check(
            is_int(self.n_steps) and self.n_steps >= 0,
            f"propagation.n_steps must be an integer >= 0, got {self.n_steps!r}",
        )
        _check(
            is_int(self.observe_every) and self.observe_every >= 1,
            f"propagation.observe_every must be an integer >= 1, got {self.observe_every!r}",
        )
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

    name: str = "numpy"
    fft_workers: int = 1
    count_ffts: bool = True

    def __post_init__(self) -> None:
        _check(
            self.name == "numpy",
            f"backend.name must be 'numpy' (the one FFT engine), got {self.name!r}",
        )
        _check(
            is_int(self.fft_workers) and self.fft_workers >= 1,
            f"backend.fft_workers must be an integer >= 1, got {self.fft_workers!r}",
        )
        _check(
            self.count_ffts is True,
            f"backend.count_ffts must be true (the engine always counts), got {self.count_ffts!r}",
        )


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

    ranks: int = 1
    pattern: str = "ring"
    machine: str = "fugaku-arm"
    use_shm: bool = True
    enabled: Optional[bool] = None

    def __post_init__(self) -> None:
        from repro.parallel.distfock import PATTERNS

        _check(
            is_int(self.ranks) and self.ranks >= 1,
            f"parallel.ranks must be an integer >= 1, got {self.ranks!r}",
        )
        _check(
            self.pattern in PATTERNS,
            f"parallel.pattern must be one of {', '.join(PATTERNS)}, got {self.pattern!r}",
        )
        _check(
            isinstance(self.use_shm, bool),
            f"parallel.use_shm must be a boolean, got {self.use_shm!r}",
        )
        if self.enabled is not None:
            _check(
                isinstance(self.enabled, bool),
                f"parallel.enabled must be a boolean, got {self.enabled!r}",
            )
        from repro.parallel.machine import machine_by_name

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
    and N - 1 spawned worker processes.  ``output`` is the
    default ``EnsembleResult`` npz path used by ``repro sweep`` when
    ``--output`` is not given.

    ``store`` (or ``repro sweep --store DIR``) points at a
    :class:`repro.store.ResultStore` study directory: finished runs are
    appended to it as they complete, and re-running the sweep *resumes*
    it — variants already completed in the store (matched by config
    hash) are restored instead of recomputed, and their shared ground
    states are read back from the store's content-addressed blobs.
    """

    _context = "sweep"

    axes: Dict[str, Any] = field(default_factory=dict)
    mode: str = "grid"
    workers: int = 1
    output: Optional[str] = None
    store: Optional[str] = None

    def __post_init__(self) -> None:
        _check(self.mode in ("grid", "zip"), f"sweep.mode must be 'grid' or 'zip', got {self.mode!r}")
        _check(
            is_int(self.workers) and self.workers >= 1,
            f"sweep.workers must be an integer >= 1, got {self.workers!r}",
        )
        if self.store is not None:
            _check(
                isinstance(self.store, str) and self.store != "",
                f"sweep.store must be a non-empty directory path, got {self.store!r}",
            )
        _check(isinstance(self.axes, Mapping), f"sweep.axes must be a table of path = [values], got {type(self.axes).__name__}")
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

    host: str = "127.0.0.1"
    port: int = 8752
    workers: int = 2
    timeout: float = 0.0
    retries: int = 3
    backoff: float = 0.5
    store: Optional[str] = None

    def __post_init__(self) -> None:
        _check(
            isinstance(self.host, str) and self.host != "",
            "serve.host must be a non-empty string",
        )
        _check(
            is_int(self.port) and 0 <= self.port <= 65535,
            f"serve.port must be an integer in [0, 65535], got {self.port!r}",
        )
        _check(
            is_int(self.workers) and self.workers >= 1,
            f"serve.workers must be an integer >= 1, got {self.workers!r}",
        )
        _check(self.timeout >= 0.0, f"serve.timeout must be >= 0, got {self.timeout}")
        _check(
            is_int(self.retries) and self.retries >= 1,
            f"serve.retries must be an integer >= 1, got {self.retries!r}",
        )
        _check(self.backoff >= 0.0, f"serve.backoff must be >= 0, got {self.backoff}")
        if self.store is not None:
            _check(
                isinstance(self.store, str) and self.store != "",
                f"serve.store must be a non-empty directory path, got {self.store!r}",
            )


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
