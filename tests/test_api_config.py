"""Config layer: strict parsing, round-trips, registry wiring."""

import dataclasses
import json

import pytest

from repro.api import (
    COMPONENTS,
    BackendConfig,
    ConfigError,
    SCFConfig,
    Simulation,
    SimulationConfig,
    SystemConfig,
    build,
)
from repro.api.cli import main
from repro.api.components import factory, propagator_options
from repro.api.config import _Section
from repro.rt.ptim import PTIMOptions
from repro.rt.ptim_ace import PTIMACEOptions
from repro.scf.groundstate import SCFOptions
from repro.utils.validation import declaration

FULL_DICT = {
    "system": {
        "cell": "silicon_supercell",
        "cell_params": {"reps": [1, 1, 2]},
        "ecut": 2.5,
        "dual": 1,
        "functional": "pbe0",
        "functional_params": {"alpha": 0.3},
    },
    "scf": {"nbands": 40, "temperature_k": 5000.0, "max_outer": 5},
    "field": {"kind": "gaussian_pulse", "params": {"amplitude": 0.01, "polarization": [0, 1, 0]}},
    "propagation": {
        "propagator": "ptim",
        "dt_as": 25.0,
        "n_steps": 4,
        "observe_every": 2,
        "track_sigma": [[0, 1], [3, 3]],
        "record_energy": False,
        "options": {"density_tol": 1e-8},
    },
}


# ---------------- round trips ---------------------------------------------------
def test_dict_round_trip():
    cfg = SimulationConfig.from_dict(FULL_DICT)
    assert SimulationConfig.from_dict(cfg.to_dict()) == cfg


def test_json_round_trip():
    cfg = SimulationConfig.from_dict(FULL_DICT)
    assert SimulationConfig.from_json(cfg.to_json()) == cfg
    # to_dict is json-clean (no tuples, numpy types, or None)
    json.dumps(cfg.to_dict())


def test_toml_round_trip(tmp_path):
    toml = """
[system]
cell = "silicon_cubic"
ecut = 2.0
functional = "lda"

[scf]
nbands = 18
temperature_k = 8000.0

[field]
kind = "static_kick"
[field.params]
kick = 2e-3

[propagation]
propagator = "ptim"
dt_as = 50.0
n_steps = 2
track_sigma = [[0, 2]]
[propagation.options]
density_tol = 1e-7
"""
    path = tmp_path / "run.toml"
    path.write_text(toml)
    cfg = SimulationConfig.from_file(path)
    assert cfg.system.functional == "lda"
    assert cfg.scf.nbands == 18
    assert cfg.field.params == {"kick": 2e-3}
    assert cfg.propagation.track_sigma == ((0, 2),)
    assert cfg.propagation.options == {"density_tol": 1e-7}
    assert SimulationConfig.from_dict(cfg.to_dict()) == cfg


def test_json_file_round_trip(tmp_path):
    cfg = SimulationConfig.from_dict(FULL_DICT)
    path = tmp_path / "run.json"
    path.write_text(cfg.to_json(indent=2))
    assert SimulationConfig.from_file(path) == cfg


def test_defaults_build_without_input():
    cfg = SimulationConfig.from_dict({})
    assert cfg.system.cell == "silicon_cubic"
    assert cfg.propagation.propagator == "ptim_ace"
    assert cfg.scf.nbands is None  # to_dict drops it; from_dict restores default
    assert SimulationConfig.from_dict(cfg.to_dict()) == cfg


# ---------------- strictness ---------------------------------------------------
def test_unknown_top_level_section_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        SimulationConfig.from_dict({"sytem": {}})


@pytest.mark.parametrize(
    "section,key",
    [("system", "ecutt"), ("scf", "n_bands"), ("field", "amplitude"), ("propagation", "dt")],
)
def test_unknown_section_key_names_dotted_path(section, key):
    with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
        SimulationConfig.from_dict({section: {key: 1}})


@pytest.mark.parametrize(
    "section,patch,match",
    [
        ("system", {"ecut": -1.0}, r"system\.ecut"),
        ("system", {"dual": 3}, r"system\.dual"),
        ("scf", {"nbands": 0}, r"scf\.nbands"),
        ("scf", {"density_tol": 0.0}, r"scf\.density_tol"),
        ("propagation", {"dt_as": 0.0}, r"propagation\.dt_as"),
        ("propagation", {"observe_every": 0}, r"propagation\.observe_every"),
        ("propagation", {"track_sigma": [[1]]}, r"propagation\.track_sigma"),
        ("scf", {"exchange_tol": 0.0}, r"scf\.exchange_tol"),
        ("scf", {"davidson_tol": -1.0}, r"scf\.davidson_tol"),
        ("scf", {"mix_beta": 0.0}, r"scf\.mix_beta"),
        ("scf", {"mix_beta": 1.5}, r"scf\.mix_beta"),
        ("scf", {"mix_history": 0}, r"scf\.mix_history"),
        # number keys refuse booleans and non-numbers by name; a boolean
        # key refuses a truthy string
        ("system", {"ecut": "3"}, r"system\.ecut"),
        ("system", {"ecut": True}, r"system\.ecut"),
        ("system", {"degeneracy": True}, r"system\.degeneracy"),
        ("scf", {"temperature_k": True}, r"scf\.temperature_k"),
        ("scf", {"density_tol": "1e-6"}, r"scf\.density_tol"),
        ("scf", {"exchange_tol": True}, r"scf\.exchange_tol"),
        ("scf", {"davidson_tol": True}, r"scf\.davidson_tol"),
        ("scf", {"mix_beta": True}, r"scf\.mix_beta"),
        ("propagation", {"dt_as": "50"}, r"propagation\.dt_as"),
        ("propagation", {"record_energy": "false"}, r"propagation\.record_energy"),
        ("propagation", {"record_energy": 0}, r"propagation\.record_energy"),
    ],
)
def test_invalid_values_name_the_key(section, patch, match):
    with pytest.raises(ConfigError, match=match):
        SimulationConfig.from_dict({section: patch})


#: every settings class and the dotted scope its refusals name
SETTING_CLASSES = [(cls, cls._context) for cls in _Section.__subclasses__()] + [
    (PTIMOptions, "propagation.options"),
    (PTIMACEOptions, "propagation.options"),
]


@pytest.mark.parametrize(
    "cls, scope, key",
    [
        pytest.param(cls, scope, f.name, id=f"{cls.__name__}.{f.name}")
        for cls, scope in SETTING_CLASSES
        for f in dataclasses.fields(cls)
        if not f.name.startswith("_")
    ],
)
def test_every_setting_is_declared(cls, scope, key):
    """Each config key and propagator option carries one declaration, and
    a number or integer key refuses a boolean by its dotted name: a key
    added without a declaration fails here."""
    rule = declaration(cls, key)
    assert rule is not None
    if rule.kind in (int, float):
        with pytest.raises(ConfigError, match=rf"{scope}\.{key}\b"):
            cls(**{key: True})


def test_number_keys_are_not_coerced():
    """An integer given for a number key stays an integer, so every config
    that loaded before the number checks keeps its hash."""
    cfg = SimulationConfig.from_dict({"system": {"ecut": 3}, "scf": {"temperature_k": 0}})
    assert cfg.to_dict()["system"]["ecut"] == 3
    assert type(cfg.system.ecut) is int and type(cfg.scf.temperature_k) is int


def _validate_exit(tmp_path, data) -> int:
    """``repro validate`` on ``data`` written as a JSON config file."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return main(["validate", str(path)])


@pytest.mark.parametrize(
    "section,key",
    [
        ("system", "fock_batch_size"),
        ("scf", "nbands"),
        ("scf", "max_scf"),
        ("scf", "max_outer"),
        ("scf", "mix_history"),
        ("scf", "seed"),
        ("propagation", "n_steps"),
        ("propagation", "observe_every"),
    ],
)
def test_integer_keys_refuse_booleans(tmp_path, capsys, section, key):
    """``True`` is not ``1``: it would run as one and hash apart from it.
    Refused by name in the section and by ``repro validate`` (exit 2)."""
    data = {section: {key: True}}
    with pytest.raises(ConfigError, match=rf"{section}\.{key}"):
        SimulationConfig.from_dict(data)
    assert _validate_exit(tmp_path, data) == 2
    assert f"{section}.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("pairs", [[[-1, 0.7]], [[0, -1]], [[0, 2.0]], [[True, 0]], [["1", 2]]])
def test_track_sigma_indices_are_integers_from_zero(tmp_path, capsys, pairs):
    """A tracked sigma element is a pair of band indices: a negative one
    would sample from the end and a float or a boolean would be truncated
    to some other band, so each is refused by name (``repro validate``
    exit 2) instead of stored."""
    data = {"propagation": {"track_sigma": pairs}}
    with pytest.raises(ConfigError, match=r"propagation\.track_sigma"):
        SimulationConfig.from_dict(data)
    assert _validate_exit(tmp_path, data) == 2
    assert "propagation.track_sigma" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section_cls,key,value",
    [(SystemConfig, "dual", 2), (BackendConfig, "count_ffts", False)],
)
def test_single_valued_keys_refused_everywhere(tmp_path, capsys, section_cls, key, value):
    """``system.dual`` and ``backend.count_ffts`` keep their keys, which
    every config hash covers, but accept one value each (1 and true):
    another is refused by name in the section, by ``Simulation`` and by
    ``repro validate`` (exit 2)."""
    dotted = f"{section_cls._context}.{key}"
    with pytest.raises(ConfigError, match=dotted) as direct:
        section_cls.from_dict({key: value})
    data = {section_cls._context: {key: value}}
    with pytest.raises(ConfigError) as facade:
        Simulation(data)
    assert str(facade.value) == str(direct.value)
    assert _validate_exit(tmp_path, data) == 2
    assert str(direct.value) in capsys.readouterr().err


def test_file_format_rejected(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("system: {}")
    with pytest.raises(ConfigError, match="unsupported config format"):
        SimulationConfig.from_file(path)


def test_invalid_toml_reports_path(tmp_path):
    path = tmp_path / "broken.toml"
    path.write_text("[system\necut = ")
    with pytest.raises(ConfigError, match="invalid TOML"):
        SimulationConfig.from_file(path)


# ---------------- replace / derivation ------------------------------------------
def test_replace_merges_section_dict():
    cfg = SimulationConfig.from_dict(FULL_DICT)
    out = cfg.replace(propagation={"propagator": "rk4", "options": {}})
    assert out.propagation.propagator == "rk4"
    assert out.propagation.dt_as == cfg.propagation.dt_as  # untouched keys kept
    assert out.system == cfg.system
    assert cfg.propagation.propagator == "ptim"  # original untouched


def test_replace_unknown_section_rejected():
    cfg = SimulationConfig.from_dict({})
    with pytest.raises(ConfigError, match="unknown config section"):
        cfg.replace(propagtion={})


def test_what_a_config_file_cannot_hold_is_refused_by_name():
    """A section value that is neither a mapping nor its section class is
    refused by the config's constructor, which ``replace`` goes through;
    ``Simulation`` refuses a config that is neither through ``from_dict``."""
    cfg = SimulationConfig.from_dict({})
    words = "config section 'system' must be a mapping or SystemConfig, got int"
    with pytest.raises(ConfigError, match=words):
        SimulationConfig(system=5)
    with pytest.raises(ConfigError, match=words):
        cfg.replace(system=5)
    assert cfg.replace(system=SystemConfig(ecut=2.0)).system.ecut == 2.0
    with pytest.raises(ConfigError, match="config must be a mapping, got int"):
        Simulation(5)
    # a Python dict may carry keys a config file cannot: named, not a TypeError
    with pytest.raises(ConfigError, match=r"unknown key\(s\) system\.1; valid keys: "):
        SimulationConfig.from_dict({"system": {1: 2}})
    with pytest.raises(ConfigError, match=r"unknown config section\(s\) 1; valid sections: "):
        SimulationConfig.from_dict({1: {}})


def test_scf_config_maps_onto_scf_options():
    """The ``[scf]`` section is the solver's options: each key declared once."""
    opts = SCFConfig.from_dict({"nbands": 12, "temperature_k": 300.0, "seed": 3})
    assert isinstance(opts, SCFOptions)
    assert (opts.nbands, opts.temperature_k, opts.seed) == (12, 300.0, 3)


# ---------------- component table ----------------------------------------------
def test_builtin_components_registered():
    # `repro components` lists the table and nothing else
    assert set(COMPONENTS) == {"cell", "functional", "field", "propagator"}
    assert set(COMPONENTS["cell"]) == {"silicon_cubic", "silicon_supercell"}
    assert set(COMPONENTS["functional"]) == {"lda", "hse", "pbe0"}
    assert set(COMPONENTS["field"]) == {"zero", "gaussian_pulse", "static_kick"}
    assert set(COMPONENTS["propagator"]) == {"rk4", "ptim", "ptim_ace", "ptcn"}
    # every entry names a factory that exists
    for kind, names in COMPONENTS.items():
        for name in names:
            assert callable(factory(kind, name)), (kind, name)


def test_builtin_factories_build_through_the_registry():
    """``silicon_supercell`` takes its ``reps`` as a TOML list, and ``pbe0``
    is the unscreened hybrid under its own name unless one is given."""
    from repro.grid.cell import silicon_cubic_cell

    cell = build("cell", "silicon_supercell", reps=[2, 1, 1])
    base = silicon_cubic_cell()
    assert cell.natom == 16
    assert cell.volume == pytest.approx(2.0 * base.volume, rel=1e-12)
    assert build("cell", "silicon_supercell").natom == 8
    pbe0 = build("functional", "pbe0")
    assert pbe0.is_hybrid and not pbe0.screened and pbe0.name == "PBE0-LDA"
    assert pbe0.alpha == build("functional", "hse").alpha
    assert build("functional", "pbe0", name="mine", alpha=0.5).name == "mine"


@pytest.mark.parametrize(
    "registry",
    [("system", "cell"), ("system", "functional"), ("field", "kind"), ("propagation", "propagator")],
)
def test_unknown_registry_key_lists_known(registry):
    """A name outside the component table is refused when the config is
    parsed, naming its dotted key and every valid name; names are exact,
    so a capitalized one is refused too."""
    section, key = registry
    kind = "field" if key == "kind" else key
    for name in ("no_such_component", sorted(COMPONENTS[kind])[0].upper()):
        with pytest.raises(ConfigError) as err:
            SimulationConfig.from_dict({section: {key: name}})
        message = str(err.value)
        assert message.startswith(f"{section}.{key} must be one of ")
        assert message.endswith(f"got {name!r}")
        for valid in COMPONENTS[kind]:
            assert repr(valid) in message


def test_registry_bad_parameters_named():
    with pytest.raises(ConfigError, match=r"^field\.params: bad parameters for field 'zero': "):
        build("field", "zero", bogus=1)
    # a factory's ValueError is named the same way as its TypeError
    with pytest.raises(ConfigError, match=r"^system\.functional_params: bad parameters for functional 'hse': alpha"):
        build("functional", "hse", alpha=2.0)


def test_propagator_options_validated():
    with pytest.raises(ConfigError, match="unknown option"):
        propagator_options("ptim", {"densty_tol": 1e-6})


@pytest.mark.parametrize(
    "name,options,error",
    [
        ("ptim", {"max_scf": 0}, ValueError),
        ("ptim", {"max_scf": -2}, ValueError),
        ("ptcn", {"density_tol": 0.0}, ValueError),
        ("ptim", {"density_tol": -1e-6}, ValueError),
        ("ptim_ace", {"max_outer": 0}, ValueError),
        ("ptim_ace", {"max_inner": 0}, ValueError),
        ("ptim_ace", {"exchange_tol": 0.0}, ValueError),
        ("ptim", {"fock_mode": "dense-tripleloop"}, ValueError),
        ("ptim", {"density_mode": "pairwise"}, ConfigError),
        ("rk4", {"density_tol": 1e-6}, ConfigError),
        ("ptim", {"max_scf": True}, ValueError),
        ("ptim", {"mix_history": True}, ValueError),
        ("ptim_ace", {"max_outer": True}, ValueError),
        ("ptim_ace", {"max_inner": True}, ValueError),
        ("ptim", {"mix_beta": 0}, ValueError),
        ("ptim", {"mix_beta": 1.5}, ValueError),
        ("ptim", {"density_tol": "1e-6"}, ValueError),
        ("ptim_ace", {"exchange_tol": True}, ValueError),
    ],
)
def test_propagator_options_refuse_what_cannot_run(name, options, error):
    """An iteration cap below one is no cap (the loop stops on equality, or
    its body never runs and the step returns the unmoved state), a
    tolerance of zero is never met, and the exchange and density act on
    sigma's eigenbasis image only: each is refused by name at build time,
    before any Hamiltonian is needed."""
    (key,) = options
    with pytest.raises(error, match=key):
        propagator_options(name, options)


def test_config_diff_names_dotted_keys():
    from repro.api import SimulationConfig

    a = SimulationConfig.from_dict({})
    b = a.replace(system={"ecut": 2.0}, propagation={"n_steps": 99})
    diff = a.diff(b)
    assert any(d.startswith("propagation.n_steps") for d in diff)
    assert any(d.startswith("system.ecut") for d in diff)
    assert a.diff(a) == []


# ---------------- [serve] section -------------------------------------------


def test_serve_config_defaults_and_roundtrip():
    from repro.api import ServeConfig

    cfg = ServeConfig.from_dict({})
    assert (cfg.host, cfg.port, cfg.workers) == ("127.0.0.1", 8752, 2)
    assert cfg.store is None
    full = ServeConfig.from_dict(
        {"host": "0.0.0.0", "port": 9000, "workers": 4, "timeout": 120.0,
         "retries": 5, "backoff": 1.0, "store": "runs"}
    )
    assert ServeConfig.from_dict(full.to_dict()) == full
    # store=None round-trips by omission (hash-stable to_dict)
    assert "store" not in cfg.to_dict()


@pytest.mark.parametrize(
    "patch, match",
    [
        ({"wrkers": 2}, "serve.wrkers"),
        ({"port": 70000}, "serve.port"),
        ({"workers": 0}, "serve.workers"),
        ({"retries": 0}, "serve.retries"),
        ({"backoff": -1.0}, "serve.backoff"),
        ({"store": ""}, "serve.store"),
        ({"port": True}, "serve.port"),
        ({"workers": True}, "serve.workers"),
        ({"retries": True}, "serve.retries"),
        ({"timeout": True}, "serve.timeout"),
        ({"timeout": "60"}, "serve.timeout"),
        ({"backoff": True}, "serve.backoff"),
    ],
)
def test_serve_config_invalid_values_named(patch, match):
    from repro.api import ServeConfig

    with pytest.raises(ConfigError, match=match):
        ServeConfig.from_dict(patch)


def test_load_serve_file_splits_sections(tmp_path):
    from repro.api import ServeConfig, load_serve_file, load_sweep_file

    path = tmp_path / "study.toml"
    path.write_text(
        '[system]\ncell = "silicon_cubic"\necut = 2.0\n\n'
        "[serve]\nport = 0\nworkers = 3\nstore = \"runs\"\n\n"
        "[sweep]\n[sweep.axes]\n\"field.params.kick\" = [0.001, 0.002]\n"
    )
    sim, serve = load_serve_file(path)
    assert sim.system.ecut == 2.0
    assert serve == ServeConfig.from_dict({"port": 0, "workers": 3, "store": "runs"})
    # the simulation config is hash-stable: serve/sweep sections are not in it
    assert "serve" not in sim.to_dict() and "sweep" not in sim.to_dict()
    # the same file still loads for sweep/run tooling ([serve] tolerated)
    base, sweep = load_sweep_file(path)
    assert base.system.ecut == 2.0
    assert sweep.n_runs == 2
