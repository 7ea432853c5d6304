"""repro.store: blobs, run files, the run index, and round-trips.

The cheap structural tests run on synthetic trajectories; one real
(tiny) simulation result backs the materialization round-trips — a
stored run must export to exactly the bytes-for-bytes content that
``SimulationResult.save_npz`` would have written.
"""

import errno
import inspect
import io
import json
import os
import re
import sqlite3
from pathlib import Path

import numpy as np
import pytest

import repro
from oracles import recorded_times
from repro.api import (
    ConfigError,
    ResultError,
    Simulation,
    SimulationConfig,
    SimulationResult,
)
from repro.api.runs import run_one
from repro.rt.propagator import PropagationRecord, TDState
from repro.serve.queue import COLUMNS, JobQueue
from repro.store import (
    ResultStore,
    StoreError,
    config_hash,
    flatten_dotted,
    group_address,
    parse_when,
    parse_where,
    run_id_for,
)
from repro.store.common import connect_sqlite
from repro.store.schema import SCHEMA_VERSION
from repro.store.store import STORE_VERSION, inspect_store

CFG = {
    "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "lda"},
    "scf": {"nbands": 20, "density_tol": 1e-4, "max_scf": 40},
    "field": {"kind": "static_kick", "params": {"kick": 0.001}},
    "propagation": {"propagator": "ptim", "dt_as": 50.0, "n_steps": 2,
                    "track_sigma": [[0, 2]]},
}

def make_config(**field_params) -> SimulationConfig:
    data = json.loads(json.dumps(CFG))
    data["field"]["params"].update(field_params)
    return SimulationConfig.from_dict(data)


def synth_arrays(n=5, seed=0):
    rng = np.random.default_rng(seed)
    return {
        "times": np.arange(float(n)),
        "dipole": rng.normal(size=(n, 3)),
        "energy": rng.normal(size=n),
        "particle_number": np.full(n, 8.0),
        "field": rng.normal(size=(n, 3)),
        "sigma_0_2": rng.normal(size=n) + 1j * rng.normal(size=n),
    }


def synth_state(seed=1):
    rng = np.random.default_rng(seed)
    return TDState(
        phi=rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)),
        sigma=rng.normal(size=(2, 2)) + 0j,
        time=2.5,
    )


def synth_result(config, seed=0, ground_state=None) -> SimulationResult:
    """A whole run of ``config`` over a synthetic trajectory and state: its
    samples sit at the times ``propagate`` records them."""
    times = recorded_times(config)
    arrays = {**synth_arrays(len(times), seed), "times": times}
    return SimulationResult(config, PropagationRecord.from_arrays(arrays), synth_state(), ground_state)


@pytest.fixture(scope="module")
def real_result() -> SimulationResult:
    """One genuine tiny propagation (ground state included)."""
    return Simulation.from_config(CFG).run()


# ---------------- store directory lifecycle -----------------------------------


def test_store_metadata_persists_across_reopen(tmp_path):
    ResultStore(tmp_path / "study").close()
    meta = json.loads((tmp_path / "study" / "store.json").read_text())
    assert set(meta) == {"store_version", "backend", "created"}
    assert meta["store_version"] == STORE_VERSION
    again = ResultStore(tmp_path / "study", create=False)
    assert json.loads((tmp_path / "study" / "store.json").read_text()) == meta
    again.close()
    with pytest.raises(TypeError):
        ResultStore(tmp_path / "other", chunk_steps=7)


def test_store_refuses_foreign_directory(tmp_path):
    (tmp_path / "stuff.txt").write_text("not a store")
    with pytest.raises(StoreError, match="store.json"):
        ResultStore(tmp_path)


def test_store_refuses_newer_store_version(tmp_path):
    root = tmp_path / "study"
    ResultStore(root).close()
    meta = json.loads((root / "store.json").read_text())
    meta["store_version"] = 99
    (root / "store.json").write_text(json.dumps(meta))
    with pytest.raises(StoreError, match="store_version 99"):
        ResultStore(root)


def test_missing_store_not_created_when_create_false(tmp_path):
    with pytest.raises(StoreError, match="no result store"):
        ResultStore(tmp_path / "nope", create=False)
    assert not (tmp_path / "nope").exists()


def test_regular_file_is_not_a_store_path(tmp_path, capsys):
    """A regular file as the store path is refused by name, by the opener
    and by every CLI verb that takes a store (exit 2, no traceback)."""
    from repro.api.cli import main

    f = tmp_path / "f"
    f.write_text("")
    for create in (True, False):
        with pytest.raises(StoreError, match="not a directory"):
            ResultStore(f, create=create)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    for argv in (
        ["run", str(cfg), "--store", str(f)],
        ["sweep", str(cfg), "--store", str(f)],
        ["jobs", "ls", str(f)],
        ["validate", str(cfg), "--store", str(f)],
    ):
        assert main(argv) == 2, argv
        assert "not a directory" in capsys.readouterr().err, argv


def _file_path(root):
    root.write_text("")


def _foreign_directory(root):
    root.mkdir()
    (root / "stuff.txt").write_text("not a store")


def _jsonl_backend(root):
    root.mkdir()
    (root / "store.json").write_text(json.dumps({"store_version": 1, "backend": "jsonl"}))


def _store_version_1(root):
    (root / "runs" / "r000000000000").mkdir(parents=True)
    (root / "store.json").write_text(json.dumps({"store_version": 1, "backend": "sqlite"}))


def _schema(version):
    def make(root):
        ResultStore(root).close()
        conn = connect_sqlite(root / "index.sqlite")
        conn.execute(f"UPDATE meta SET value = '{version}' WHERE key = 'schema_version'")
        conn.close()

    return make


@pytest.mark.parametrize(
    "make, stream",
    [
        (_file_path, "error"),
        (_foreign_directory, "error"),
        (_jsonl_backend, "error"),
        (_store_version_1, "warning"),
        (_schema(3), "warning"),
        (_schema(99), "warning"),
    ],
    ids=["file", "foreign", "jsonl", "store_version_1", "schema_3", "schema_99"],
)
def test_validate_prints_the_line_the_opener_raises(tmp_path, capsys, make, stream):
    """``repro validate --store`` runs the opener's own test: the refusal
    ``ResultStore`` raises is the line validate prints, as an ``error:``
    (exit 2) for a path that can never hold a store or a ``warning:``
    (exit 0) for a store this build does not open.  Neither creates or
    alters anything."""
    from repro.api.cli import main

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    root = tmp_path / "study"
    make(root)
    meta = root / "store.json"
    before = _tree(tmp_path), meta.read_bytes() if meta.exists() else None
    with pytest.raises(StoreError) as refused:
        ResultStore(root)
    code = main(["validate", str(cfg), "--store", str(root)])
    out, err = capsys.readouterr()
    if stream == "error":
        assert (code, err) == (2, f"error: {refused.value}\n")
    else:
        assert code == 0
        assert f"warning: {refused.value}\n" in out
    assert (_tree(tmp_path), meta.read_bytes() if meta.exists() else None) == before


def test_run_row_columns_are_the_ddl_columns(tmp_path):
    """``StoredRun``'s fields name the ``jobs`` table's columns in order,
    so the row dataclass and the DDL cannot drift apart."""
    ResultStore(tmp_path / "study").close()
    conn = connect_sqlite(tmp_path / "study" / "index.sqlite")
    try:
        assert COLUMNS == tuple(row[1] for row in conn.execute("PRAGMA table_info(jobs)"))
    finally:
        conn.close()


# ---------------- content-addressed blobs -------------------------------------


def test_one_ground_state_blob_per_shared_scf_group(tmp_path, real_result):
    """N variants in one (system, scf) group store exactly one SCF blob."""
    store = ResultStore(tmp_path / "study")
    kicks = (0.001, 0.002, 0.003, 0.004)
    for kick in kicks:
        cfg = make_config(kick=kick)
        store.add_run(synth_result(cfg, ground_state=real_result.ground_state))
    assert len(store.blobs.ground_state_addresses()) == 1
    # every run row points at the same group blob
    addresses = {run.gs_address for run in store.query()}
    assert addresses == {group_address(make_config(kick=0.001))}
    # and the blob restores the ground state faithfully
    gs = store.load_ground_state(make_config(kick=0.004))
    assert np.array_equal(gs.orbitals, real_result.ground_state.orbitals)
    assert np.array_equal(gs.occupations, real_result.ground_state.occupations)
    assert gs.converged == real_result.ground_state.converged
    store.close()


def test_run_ids_are_config_addressed():
    a, b = make_config(kick=0.001), make_config(kick=0.002)
    assert run_id_for(a) == run_id_for(a)
    assert run_id_for(a) != run_id_for(b)
    assert run_id_for(a) == "r" + config_hash(a)[:12]


# ---------------- the run index ------------------------------------------------


def _record_error(store, config, error):
    """A stored run that began and failed: its row is ``error``."""
    with pytest.raises(RuntimeError), store.queue.recording(config):
        raise RuntimeError(error)
    return run_id_for(config)


def test_index_queries(tmp_path):
    store = ResultStore(tmp_path / "study")
    for i, kick in enumerate((0.001, 0.002, 0.003)):
        store.add_run(synth_result(make_config(kick=kick), seed=i))
    failing = make_config(kick=0.009)
    _record_error(store, failing, "boom")
    assert len(store) == 4

    assert [r.status for r in store.query(status="error")] == ["error"]
    hit = store.query(where={"field.params.kick": 0.002})
    assert [run_id_for(make_config(kick=0.002))] == [r.run_id for r in hit]
    assert store.query(where={"field.params.kick": 0.777}) == []
    # compound: status + dotted key
    assert store.query(status="ok", where={"system.ecut": 2.0, "system.functional": "lda"})
    assert store.query(status="error", where={"field.params.kick": 0.002}) == []

    # time windows (everything was created just now)
    created = [r.created for r in store.query()]
    assert store.query(since=max(created) + 60.0) == []
    assert len(store.query(until=max(created) + 60.0)) == 4
    store.close()


def test_rerun_replaces_the_stored_run(tmp_path):
    store = ResultStore(tmp_path / "study")
    cfg = make_config()
    rid = store.add_run(synth_result(cfg))
    first_created = store.get(rid).created
    latest = synth_result(cfg, seed=3)
    rid2 = store.add_run(latest)
    assert rid2 == rid  # same config, same address: latest wins
    run = store.get(rid)
    assert run.n_times == 3 and run.created == first_created
    assert np.array_equal(store.load_result(rid).observables()["energy"], latest.observables()["energy"])
    store.close()


def test_running_rows_are_not_completed(tmp_path):
    store = ResultStore(tmp_path / "study")
    cfg = make_config()
    with store.queue.recording(cfg) as row:
        rid = row.run_id
        assert store.get(rid).status == "running"
        assert store.find_completed(cfg) is None  # interrupted -> re-queued
        store.add_run(synth_result(cfg))
    assert store.find_completed(cfg).run_id == rid
    store.close()


def test_unknown_run_id_names_the_store(tmp_path):
    store = ResultStore(tmp_path / "study")
    with pytest.raises(StoreError, match="no run 'r123'"):
        store.get("r123")
    store.close()


# ---------------- schema versions ----------------------------------------------


def _tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def test_store_written_by_1_9_is_refused_by_name(tmp_path):
    """``store_version`` 1 (run directories): refused with the remedy, on
    open and in the peek, and nothing is created or altered on the way."""
    root = tmp_path / "old"
    (root / "runs" / "r000000000000").mkdir(parents=True)
    (root / "store.json").write_text(
        json.dumps({"store_version": 1, "backend": "sqlite", "chunk_steps": 256})
    )
    before = _tree(root), (root / "store.json").read_bytes()
    with pytest.raises(StoreError, match=r"store_version 1, written by repro 1\.5 to 1\.9.*results export"):
        ResultStore(root)
    check = inspect_store(root)
    assert check.meta["store_version"] == 1 and check.schema_version is None
    assert len(check.problems) == 1
    assert "store_version 1, written by repro 1.5 to 1.9" in check.problems[0]
    assert "repro results export" in check.problems[0]
    assert (_tree(root), (root / "store.json").read_bytes()) == before


@pytest.mark.parametrize(
    "version, writers", [(3, "1.6 to 1.9"), (4, "1.10 to 1.28")], ids=["schema_3", "schema_4"]
)
def test_older_schema_index_is_refused_by_name(tmp_path, capsys, version, writers):
    """An ``index.sqlite`` at an older schema under a current ``store.json``
    is refused by name, naming the releases that wrote it, by every opener."""
    from repro.api.cli import main

    root = tmp_path / "old"
    ResultStore(root).close()
    conn = connect_sqlite(root / "index.sqlite")
    conn.execute(f"UPDATE meta SET value = '{version}' WHERE key = 'schema_version'")
    conn.execute("ALTER TABLE jobs ADD COLUMN n_chunks INTEGER NOT NULL DEFAULT 0")
    conn.close()

    def columns():
        conn = connect_sqlite(root / "index.sqlite")
        try:
            return [row[1] for row in conn.execute("PRAGMA table_info(jobs)")]
        finally:
            conn.close()

    before = _tree(root), columns()
    words = rf"schema version {version}, written by repro {re.escape(writers)};.*results export"
    with pytest.raises(StoreError, match=words):
        ResultStore(root)
    with pytest.raises(StoreError, match=words):
        JobQueue(root)
    check = inspect_store(root)
    assert check.schema_version == version != SCHEMA_VERSION
    assert [(f"schema version {version}" in p, "repro results export" in p) for p in check.problems] == [(True, True)]
    # repro validate --store prints the same words as a warning and exits 0;
    # repro jobs ls refuses them as an error, exit 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CFG))
    assert main(["validate", str(cfg), "--store", str(root)]) == 0
    assert f"warning: {check.problems[0]}" in capsys.readouterr().out
    assert main(["jobs", "ls", str(root)]) == 2
    assert f"error: {check.problems[0]}" in capsys.readouterr().err
    assert (_tree(root), columns()) == before
    assert inspect_store(root).schema_version == version


def test_newer_sqlite_schema_refused(tmp_path):
    ResultStore(tmp_path / "study").close()
    conn = sqlite3.connect(tmp_path / "study" / "index.sqlite")
    with conn:
        conn.execute("UPDATE meta SET value = '99' WHERE key = 'schema_version'")
    conn.close()
    with pytest.raises(StoreError, match="schema version 99"):
        ResultStore(tmp_path / "study")
    # validate's peek reports it as data instead of raising
    check = inspect_store(tmp_path / "study")
    assert check.schema_version == 99 != SCHEMA_VERSION
    assert "schema version 99, newer than" in check.problems[0]


def test_ensure_schema_refuses_an_index_at_another_version(tmp_path):
    """The openers peek first (``inspect_store``, above); ``ensure_schema``,
    on the connection they then write through, refuses in the same words an
    index stamped with another version meanwhile, and leaves it as it was."""
    from repro.store import ensure_schema
    from repro.store.schema import schema_version

    ResultStore(tmp_path / "study").close()
    path = tmp_path / "study" / "index.sqlite"
    conn = connect_sqlite(path)
    try:
        conn.execute("UPDATE meta SET value = '99' WHERE key = 'schema_version'")
        with pytest.raises(StoreError, match=re.escape(f"store index {path} has schema version 99, newer than")):
            ensure_schema(conn, path)
        assert schema_version(conn) == 99
    finally:
        conn.close()


def test_store_naming_a_removed_index_backend_is_refused(tmp_path):
    """``store.json`` is outside input: a backend this build no longer has
    is rejected by name, never silently opened as sqlite."""
    root = tmp_path / "old"
    root.mkdir()
    (root / "store.json").write_text(
        json.dumps({"store_version": 1, "backend": "jsonl", "chunk_steps": 256})
    )
    (root / "index.jsonl").write_text('{"jsonl_header": true, "schema_version": 3}\n')
    with pytest.raises(StoreError, match=r"'jsonl'.*removed in 1\.8\.0"):
        ResultStore(root)
    with pytest.raises(StoreError, match=r"removed in 1\.8\.0"):
        inspect_store(root)
    assert not (root / "index.sqlite").exists()  # nothing was created on the way


# ---------------- materialization round-trips ---------------------------------


def _same_npz(path_a, path_b):
    with np.load(path_a) as a, np.load(path_b) as b:
        assert set(a.files) == set(b.files)
        for key in a.files:
            assert a[key].dtype == b[key].dtype, key
            assert np.array_equal(a[key], b[key]), key


def test_stored_run_exports_bit_identical_npz(tmp_path, real_result):
    """The stored file, its export, and load_result -> save_npz all equal
    the original save_npz payload; the stored file *is* a result file."""
    direct = real_result.save_npz(tmp_path / "direct.npz")
    root = tmp_path / "study"
    store = ResultStore(root)
    rid = store.add_run(real_result)
    stored = root / "runs" / f"{rid}.npz"
    _same_npz(direct, stored)
    _same_npz(direct, store.fetch(rid, tmp_path / "exported.npz"))
    _same_npz(direct, store.load_result(rid).save_npz(tmp_path / "resaved.npz"))
    config, arrays = SimulationResult.load_npz(stored, expected_config=real_result.config)
    assert config == real_result.config
    assert np.array_equal(arrays["final_phi"], real_result.final_state.phi)
    with pytest.raises(ConfigError, match=r"field\.params\.kick"):
        SimulationResult.load_npz(stored, expected_config=make_config(kick=0.5))
    store.close()
    # one layout per object: nothing else lives in a store directory
    assert sorted(p.name for p in root.iterdir()) == ["blobs", "index.sqlite", "runs", "store.json"]
    assert [p.name for p in (root / "runs").iterdir()] == [f"{rid}.npz"]
    assert [p.name for p in (root / "blobs").iterdir()] == ["ground_states"]


def test_load_result_restores_state_and_accounting(tmp_path, real_result):
    store = ResultStore(tmp_path / "study")
    rid = store.add_run(real_result, elapsed=1.25)
    back = store.load_result(rid, with_ground_state=True)
    assert back.config == real_result.config
    assert np.array_equal(back.final_state.phi, real_result.final_state.phi)
    assert np.array_equal(back.final_state.sigma, real_result.final_state.sigma)
    assert back.final_state.time == real_result.final_state.time
    assert back.fft == real_result.fft
    assert np.array_equal(
        back.ground_state.orbitals, real_result.ground_state.orbitals
    )
    assert store.get(rid).elapsed == 1.25
    # a failed or a queued run never materializes
    bad_id = _record_error(store, make_config(kick=0.9), "diverged")
    queued, _ = store.queue.submit(make_config(kick=0.8))
    for run_id, status in ((bad_id, "error"), (queued.run_id, "queued")):
        with pytest.raises(StoreError, match=f"status '{status}'"):
            store.load_result(run_id)
    store.close()


def test_simulation_run_store_appends(tmp_path, real_result):
    sim = Simulation.from_config(CFG)
    sim._gs = real_result.ground_state
    result = sim.run(store=tmp_path / "study")
    store = ResultStore.ensure(tmp_path / "study")
    run = store.find_completed(result.config)
    assert run is not None and run.elapsed > 0.0
    back = store.load_result(run.run_id).observables()
    for key, arr in result.observables().items():
        assert np.array_equal(back[key], arr), key
    store.close()


def test_a_failed_rerun_leaves_the_stored_run_readable(tmp_path, real_result):
    """A re-run of a stored run (``run_one(reuse=False)``, ``repro run --rerun``)
    that fails leaves the ``ok`` row, its accounting and its file as they were."""
    from repro.api.cli import main

    root = tmp_path / "study"
    sim = Simulation.from_config(CFG)
    sim._gs = real_result.ground_state
    result = sim.run(store=root)
    store = ResultStore(root, create=False)
    before = store.find_completed(result.config)
    assert before.elapsed > 0.0 and before.fft

    def diverge(step, n_steps):
        if step:
            raise FloatingPointError("diverged")

    with pytest.raises(FloatingPointError):
        run_one(sim.derive(), store, diverge, reuse=False)
    assert store.get(before.run_id) == before
    assert store.queue.workers() == []
    export = tmp_path / "export.npz"
    assert main(["jobs", "fetch", str(root), before.run_id, str(export)]) == 0
    _, arrays = SimulationResult.load_npz(export)
    for key, arr in result.observables().items():
        assert np.array_equal(arrays[key], arr), key
    store.close()


def test_a_resumed_simulation_is_not_stored(tmp_path, real_result):
    """``Simulation.resume(file).run(store=)`` continues past t = 0, so it
    is refused, naming t, even where the store holds the config's ``ok``
    run: the caller gets no cache hit for a trajectory it did not ask for."""
    path = real_result.save_npz(tmp_path / "run.npz")
    root, empty = tmp_path / "study", tmp_path / "empty"
    store = ResultStore(root)
    before = store.get(store.add_run(real_result))
    t = real_result.final_state.time
    for target in (root, empty):
        with pytest.raises(ConfigError, match=re.escape(f"t = {t!r}")):
            Simulation.resume(path).run(store=target)
    assert store.get(before.run_id) == before
    assert not empty.exists()
    store.close()


def test_add_run_refuses_what_is_not_a_run_from_t0(tmp_path, real_result):
    """A continuation (first sample past t = 0) and a checkpoint (no
    record) are refused, naming the run id, before any blob, file or row
    is written."""
    root = tmp_path / "study"
    store = ResultStore(root)
    config, gs = real_result.config, real_result.ground_state
    later = synth_arrays()
    later["times"] = later["times"] + real_result.final_state.time
    continuation = SimulationResult(config, PropagationRecord.from_arrays(later), synth_state(), gs)
    checkpoint = SimulationResult(config, None, real_result.final_state, gs)
    rid = run_id_for(config)
    for result in (continuation, checkpoint):
        with pytest.raises(StoreError, match=rid):
            store.add_run(result)
    assert store.queue.get(rid) is None
    assert list(root.glob("runs/*")) == [] and list(root.glob("blobs/*/*")) == []
    store.close()


def test_an_orphan_file_that_is_not_a_run_from_t0_is_not_served(tmp_path, real_result):
    """A result file whose writer died before finishing the row is served
    only as a run from t = 0: an orphan continuation is reported by run id
    and restored neither by ``find_completed`` nor by a sweep, its row
    stays not-``ok`` and the file is kept until the sweep's own run of the
    config replaces it."""
    from repro.api import SweepConfig, run_ensemble
    from repro.api.simulation import write_result_npz

    root = tmp_path / "study"
    store = ResultStore(root)
    config, gs = real_result.config, real_result.ground_state
    store.put_ground_state(config, gs)
    rid = store.queue.begin(config).run_id  # the row a killed writer leaves
    later = synth_arrays()
    later["times"] = later["times"] + real_result.final_state.time
    orphan = store.runs_dir / f"{rid}.npz"
    write_result_npz(orphan, SimulationResult(config, PropagationRecord.from_arrays(later), synth_state()))
    with pytest.warns(RuntimeWarning, match=f"run {rid}: the result starts at t = "):
        assert store.find_completed(config) is None
    assert store.get(rid).status == "running" and orphan.exists()

    lines = []
    sweep = SweepConfig.from_dict({"axes": {"field.params.kick": [config.field.params["kick"]]}})
    with pytest.warns(RuntimeWarning, match=rid):
        ensemble = run_ensemble(config, sweep, workers=1, progress=lines.append, store=store)
    assert not any(f"restored from store ({rid})" in line for line in lines)
    assert ensemble.runs[0].run.run_id == rid and store.get(rid).ok
    back = store.load_result(rid)
    assert back.record.times[0] == 0.0
    assert np.array_equal(back.record.times, real_result.record.times)
    store.close()


@pytest.mark.parametrize(
    "override, samples",
    [({"n_steps": 1}, 2), ({"observe_every": 2}, 2), ({"dt_as": 40.0}, 3)],
    ids=["n_steps", "observe_every", "dt_as"],
)
def test_add_run_refuses_what_is_not_the_configs_whole_run(tmp_path, real_result, override, samples):
    """A ``propagate`` that overrides ``n_steps``, ``observe_every`` or
    ``dt_as`` starts at t = 0 but is not its config's whole trajectory:
    ``add_run`` refuses it, naming the run id, both sample counts and both
    end times, before any blob, file or row is written."""
    root = tmp_path / "study"
    store = ResultStore(root)
    result = Simulation(real_result.config, ground_state=real_result.ground_state).propagate(**override)
    rid, end = run_id_for(result.config), real_result.record.times[-1]
    refusal = (
        f"run {rid}: the result has {samples} samples to t = {result.record.times[-1]!r} a.u., its "
        f"config (n_steps = 2, dt_as = 50.0, observe_every = 1) records 3 to t = {end!r}"
    )
    with pytest.raises(StoreError, match=re.escape(refusal)):
        store.add_run(result)
    assert store.queue.get(rid) is None
    assert list(root.glob("runs/*")) == [] and list(root.glob("blobs/*/*")) == []
    store.close()


@pytest.mark.parametrize("door", ["find_completed", "sweep", "repro run --store"])
def test_an_orphan_short_run_is_not_served(tmp_path, real_result, door, capsys):
    """An orphan ``propagate(n_steps=1)`` file of a 2-step config (a writer
    that died before finishing the row) is not the config's run: none of
    the doors serves it, and the config's own run replaces it whole."""
    from repro.api import SweepConfig, run_ensemble
    from repro.api.cli import main

    root = tmp_path / "study"
    store = ResultStore(root)
    config, gs = real_result.config, real_result.ground_state
    store.put_ground_state(config, gs)
    rid = store.queue.begin(config).run_id
    orphan = store.runs_dir / f"{rid}.npz"
    Simulation(config, ground_state=gs).propagate(n_steps=1).save_npz(orphan)
    refusal = f"run {rid}: the result has 2 samples"
    if door == "find_completed":
        with pytest.warns(RuntimeWarning, match=refusal):
            assert store.find_completed(config) is None
        assert store.get(rid).status == "running" and orphan.exists()
    elif door == "sweep":
        lines = []
        sweep = SweepConfig.from_dict({"axes": {"field.params.kick": [config.field.params["kick"]]}})
        with pytest.warns(RuntimeWarning, match=refusal):
            run_ensemble(config, sweep, workers=1, progress=lines.append, store=store)
        assert not any(f"restored from store ({rid})" in line for line in lines)
    else:
        path = tmp_path / "run.json"
        path.write_text(config.to_json())
        with pytest.warns(RuntimeWarning, match=refusal):
            assert main(["run", str(path), "--store", str(root)]) == 0
        assert "reused from" not in capsys.readouterr().out
    if door != "find_completed":
        assert store.get(rid).ok
        assert np.array_equal(store.load_result(rid).record.times, real_result.record.times)
    store.close()


def test_only_run_one_stores_a_run():
    """``git grep -n "add_run(" src/repro`` finds the method's definition
    and one call, :func:`~repro.api.runs.run_one`'s: a second way into the
    store would be a second call."""
    src = Path(repro.__file__).parent
    calls = [
        f"{path.relative_to(src)}:{n}"
        for path in sorted(src.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "add_run(" in line and "def add_run(" not in line
    ]
    lines, start = inspect.getsourcelines(run_one)
    assert len(calls) == 1 and calls[0] in {
        f"api/runs.py:{n}" for n in range(start, start + len(lines))
    }, calls


def test_simulation_run_reuses_stored_ground_state(tmp_path, real_result, monkeypatch):
    store = ResultStore(tmp_path / "study")
    store.put_ground_state(real_result.config, real_result.ground_state)

    import repro.api.simulation as sim_mod

    def _no_scf(*a, **k):
        raise AssertionError("run_scf must not be called: gs is in the store")

    monkeypatch.setattr(sim_mod, "run_scf", _no_scf)
    result = Simulation.from_config(CFG).run(store=store)
    assert np.array_equal(
        result.ground_state.orbitals, real_result.ground_state.orbitals
    )
    store.close()


# ---------------- query helpers ------------------------------------------------


def test_parse_where_types():
    parsed = parse_where(
        ["field.params.kick=0.002", "propagation.propagator=ptim", "scf.nbands=20"]
    )
    assert parsed == {
        "field.params.kick": 0.002,
        "propagation.propagator": "ptim",
        "scf.nbands": 20,
    }
    with pytest.raises(StoreError, match="dotted.config.key=value"):
        parse_where(["no-equals-sign"])


def test_parse_when_formats():
    import datetime as dt

    assert parse_when(None) is None
    assert parse_when("1754000000") == 1754000000.0
    expected = dt.datetime(2026, 8, 1, tzinfo=dt.timezone.utc).timestamp()
    assert parse_when("2026-08-01") == expected  # bare dates are UTC midnight
    with pytest.raises(StoreError, match="bad timestamp"):
        parse_when("yesterday")


def test_parse_when_end_of_day():
    import datetime as dt

    start = parse_when("2026-08-01")
    end = parse_when("2026-08-01", end=True)
    # --until 2026-08-01 must include the whole day but not the next one
    assert end == pytest.approx(start + 86400.0, abs=1e-3)
    assert end < dt.datetime(2026, 8, 2, tzinfo=dt.timezone.utc).timestamp()
    # only bare dates widen; full timestamps and epochs are unaffected
    assert parse_when("2026-08-01T12:00:00", end=True) == parse_when("2026-08-01T12:00:00")
    assert parse_when("1754000000", end=True) == 1754000000.0


def test_query_limit_offset_pages_in_order(tmp_path):
    store = ResultStore(tmp_path / "study")
    for i, kick in enumerate((0.001, 0.002, 0.003, 0.004, 0.005)):
        store.add_run(synth_result(make_config(kick=kick), seed=i))
    everything = [r.run_id for r in store.query()]
    assert len(everything) == 5
    first_two = [r.run_id for r in store.query(limit=2)]
    rest = [r.run_id for r in store.query(offset=2)]
    assert first_two + rest == everything
    assert [r.run_id for r in store.query(limit=2, offset=4)] == everything[4:]
    assert store.query(offset=99) == []
    # paging composes with filters
    assert len(store.query(status="ok", limit=3)) == 3
    store.close()


def test_jobs_show_on_a_store_directory_prints_the_attempt_history(tmp_path, capsys):
    """``repro jobs show DIR ID`` reads a row's attempts from the store
    itself, with no server: the failed attempt, then the run that landed,
    each on the worker that made it, then the stored result's summary."""
    from repro.api.cli import main
    from repro.serve.queue import own_worker_id

    store = ResultStore(tmp_path / "study")
    config = make_config(kick=0.002)
    row = store.queue.begin(config)
    store.queue.fail_attempt(row.run_id, "FloatingPointError: diverged")
    store.add_run(synth_result(config), elapsed=0.5)
    store.close()
    assert main(["jobs", "show", str(tmp_path / "study"), row.run_id]) == 0
    out = capsys.readouterr().out
    attempts = [line for line in out.splitlines() if line.startswith("  attempt ")]
    assert [line.split(" (")[0] for line in attempts] == [
        f"  attempt 1: error on {own_worker_id()}",
        f"  attempt 2: ok on {own_worker_id()}",
    ]
    assert f"run {row.run_id} [(base)]: ok" in out and "  attempts 2/2 " in out
    assert "dipole_x" in out  # the summary, read from the fetched file


@pytest.mark.parametrize("verb", [["watch"], ["cancel", "r000000000000"]], ids=["watch", "cancel"])
def test_jobs_watch_and_cancel_refuse_a_store_directory(tmp_path, capsys, verb):
    """Live jobs are a server's: ``jobs watch`` / ``jobs cancel`` given a
    directory exit 2 with one line naming it, before opening anything."""
    from repro.api.cli import main

    study = str(tmp_path / "study")
    assert main(["jobs", verb[0], study, *verb[1:]]) == 2
    assert capsys.readouterr().err == (
        f"error: jobs {verb[0]} needs a job-server URL (http://HOST:PORT), "
        f"got {study!r}: a store directory has no live jobs\n"
    )
    assert not (tmp_path / "study").exists()


def test_every_refusal_hint_names_a_command_the_parser_accepts(tmp_path):
    """A refusal that says what to run next names a command the build it
    addresses takes: the unknown-run hint this build's parser
    (``jobs ls STORE``), the older-store hint the writing build's verb
    (``results export STORE RUN_ID NPZ``, which this parser refuses)."""
    from repro.api.cli import _build_parser

    store = ResultStore(tmp_path / "study")
    with pytest.raises(StoreError) as unknown:
        store.get("r000000000000")
    store.close()
    old = tmp_path / "old"
    old.mkdir()
    (old / "store.json").write_text(json.dumps({"store_version": 1, "backend": "sqlite"}))
    hints = [str(unknown.value), *inspect_store(old).problems]
    commands = [re.search(r"repro ([^()]+?)(?:\)|$)", hint).group(1).split() for hint in hints]
    assert [command[:2] for command in commands] == [["jobs", "ls"], ["results", "export"]]
    _build_parser().parse_args(commands[0])
    with pytest.raises(SystemExit):
        _build_parser().parse_args(commands[1])


def test_negative_paging_is_refused_by_name(tmp_path, capsys):
    """SQLite reads a negative LIMIT as "no limit" and a negative OFFSET as
    0; the one paging query refuses both by name instead, and ``repro
    jobs ls`` exits 2 with that line."""
    from repro.api.cli import main

    store = ResultStore(tmp_path / "study")
    for i, kick in enumerate((0.001, 0.002, 0.003, 0.004)):
        store.add_run(synth_result(make_config(kick=kick), seed=i))
    with pytest.raises(StoreError, match="limit must be >= 0, got -1"):
        store.query(limit=-1)
    with pytest.raises(StoreError, match="offset must be >= 0, got -3"):
        store.query(limit=2, offset=-3)
    store.close()
    for argv, refusal in (
        (["--limit", "-1"], "limit must be >= 0, got -1"),
        (["--limit", "2", "--offset", "-3"], "offset must be >= 0, got -3"),
    ):
        assert main(["jobs", "ls", str(tmp_path / "study"), *argv]) == 2
        out, err = capsys.readouterr()
        assert refusal in err and "run(s)" not in out


def test_dotted_key_query_finds_one_run_among_hundreds(tmp_path):
    """The index at study size: every row lands, a dotted-key query is
    exact (kicks 1e-6 apart), and lookup by id sees a completed run."""
    n_runs = 300
    kicks = [1e-3 + 1e-6 * i for i in range(n_runs)]
    store = ResultStore(tmp_path / "study")
    for i, kick in enumerate(kicks):
        store.add_run(synth_result(make_config(kick=kick), seed=i), elapsed=0.1)
    hits = store.query(where={"field.params.kick": kicks[n_runs // 2]}, status="ok")
    assert [r.run_id for r in hits] == [run_id_for(make_config(kick=kicks[n_runs // 2]))]
    assert store.get(run_id_for(make_config(kick=kicks[n_runs // 3]))).ok
    assert len(store.query()) == n_runs
    store.close()


def test_flatten_dotted_covers_param_dicts():
    flat = flatten_dotted(make_config(kick=0.003).to_dict())
    assert flat["field.params.kick"] == 0.003
    assert flat["system.cell"] == "silicon_cubic"
    assert "propagation.track_sigma" in flat  # lists stay whole values


# ---------------- loader error surfaces (satellite 2) --------------------------


def test_result_load_missing_file_names_path(tmp_path):
    missing = tmp_path / "gone.npz"
    with pytest.raises(ResultError, match="gone.npz"):
        SimulationResult.load_npz(missing)
    # ResultError is a ConfigError: existing except ConfigError nets catch it
    assert issubclass(ResultError, ConfigError)


def test_result_load_corrupt_file_names_path(tmp_path):
    corrupt = tmp_path / "corrupt.npz"
    corrupt.write_bytes(b"PK\x03\x04 definitely not a real zip")
    with pytest.raises(ResultError, match="corrupt.npz"):
        SimulationResult.load_npz(corrupt)


def test_result_load_rejects_newer_version(tmp_path, real_result):
    path = real_result.save_npz(tmp_path / "res.npz")
    with np.load(path) as data:
        payload = {k: data[k] for k in data.files}
    payload["result_version"] = np.int64(99)
    np.savez(tmp_path / "future.npz", **payload)
    with pytest.raises(ResultError, match="result_version 99"):
        SimulationResult.load_npz(tmp_path / "future.npz")


# ---------------- atomic writes (satellite 1) ----------------------------------


def _partial_then_crash():
    """A savez stand-in that writes garbage to the target, then dies."""

    def fake(path, **payload):
        with open(path, "wb") as fh:
            fh.write(b"partial garbage")
        raise OSError("disk died mid-write")

    return fake


@pytest.mark.parametrize("what", ("result", "checkpoint", "stored-run"))
def test_crash_mid_write_preserves_previous_file(tmp_path, real_result, what, monkeypatch):
    """``stored-run``: re-running a completed config (``repro run --rerun``)
    and dying inside the payload write must leave the ``ok`` row serving
    the previous trajectory — the row and the file can never disagree."""
    sim = Simulation.from_config(CFG)
    sim._gs = real_result.ground_state
    if what == "stored-run":
        store = ResultStore(tmp_path / "study")
        target = store.runs_dir / f"{run_id_for(real_result.config)}.npz"

        def write():
            store.add_run(real_result)

        def rewrite():
            store.add_run(synth_result(real_result.config, seed=3))
    else:
        target = tmp_path / f"{what}.npz"

        def write():
            real_result.save_npz(target) if what == "result" else sim.save_checkpoint(target)

        rewrite = write
    write()
    before = target.read_bytes()
    row = store.get(run_id_for(real_result.config)) if what == "stored-run" else None

    monkeypatch.setattr(np, "savez", _partial_then_crash())
    with pytest.raises(OSError, match="disk died"):
        rewrite()
    monkeypatch.undo()

    # the previous complete file is untouched and no temp files leak
    assert target.read_bytes() == before
    assert [p.name for p in target.parent.iterdir()] == [target.name]
    if what == "result":
        SimulationResult.load_npz(target)
    elif what == "checkpoint":
        Simulation.resume(target)
    else:
        # nor did the failed rewrite finish the row: it is still the first write's
        done = store.find_completed(real_result.config)
        assert done == row and done.fft == real_result.fft._asdict()
        back = store.load_result(done.run_id)
        for key, arr in real_result.observables().items():
            assert np.array_equal(back.observables()[key], arr), key
        assert np.array_equal(back.final_state.phi, real_result.final_state.phi)
        assert np.array_equal(back.final_state.sigma, real_result.final_state.sigma)
        # a following clean re-run replaces it
        rewrite()
        energy = store.load_result(done.run_id).observables()["energy"]
        assert np.array_equal(energy, synth_result(real_result.config, seed=3).observables()["energy"])
        assert store.get(done.run_id).fft is None  # the synthetic result's (no FFT tally)
        assert store.get(done.run_id).finished >= row.finished
        assert [p.name for p in target.parent.iterdir()] == [target.name]
        store.close()


def _disk_full_after_part():
    """A savez stand-in that writes part of the file, then finds the disk full."""

    def fake(path, **payload):
        with open(path, "wb") as fh:
            fh.write(b"PK\x03\x04 first block of the archive")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

    return fake


def test_full_disk_during_the_result_write(tmp_path, real_result, monkeypatch):
    """ENOSPC inside the run file's write: ``add_run`` raises, leaves no
    file, no temp file and no row; a re-add keeps serving the previous
    file; a job fails its attempt naming the errno; with space again, the
    next write of the same config succeeds."""
    from repro.serve.queue import JobQueue
    from repro.serve.worker import execute_job

    root = tmp_path / "study"
    store = ResultStore(root)
    queue = JobQueue(root)
    config = real_result.config
    # the group's SCF is already a blob, so the job's only write is its run
    store.put_ground_state(config, real_result.ground_state)
    try:
        monkeypatch.setattr(np, "savez", _disk_full_after_part())
        with pytest.raises(OSError) as excinfo:
            store.add_run(synth_result(config))
        assert excinfo.value.errno == errno.ENOSPC
        assert list(store.runs_dir.iterdir()) == []
        assert store.query() == []

        job_id = queue.submit(config, max_attempts=2)[0].run_id
        execute_job(store, queue, queue.claim("w0"), 0.0)
        job = queue.get(job_id)
        assert job.status == "queued"
        assert f"[Errno {errno.ENOSPC}]" in job.error
        assert [a["outcome"] for a in queue.attempts(job_id)] == ["error"]
        assert list(store.runs_dir.iterdir()) == []
        monkeypatch.undo()

        execute_job(store, queue, queue.claim("w0"), 0.0)
        job = queue.get(job_id)
        assert job.status == "ok"
        target = store.result_path(job.run_id)
        before = target.read_bytes()
        row = store.get(job.run_id)
        assert row.elapsed > 0.0  # the job's own time, where add_run writes 0.0

        monkeypatch.setattr(np, "savez", _disk_full_after_part())
        with pytest.raises(OSError):
            store.add_run(synth_result(config, seed=3))
        monkeypatch.undo()
        assert target.read_bytes() == before
        assert [p.name for p in store.runs_dir.iterdir()] == [target.name]
        assert store.get(job.run_id) == row

        store.add_run(synth_result(config, seed=3))
        assert target.read_bytes() != before
        assert [p.name for p in store.runs_dir.iterdir()] == [target.name]
        assert (store.get(job.run_id).elapsed, store.get(job.run_id).finished >= row.finished) == (0.0, True)
        energy = store.load_result(job.run_id).observables()["energy"]
        assert np.array_equal(energy, synth_result(config, seed=3).observables()["energy"])
    finally:
        queue.close()
        store.close()


class _ResetAfterTwoChunks(io.BytesIO):
    """A download whose connection resets after two chunks."""

    reads = 0

    def read(self, size=-1):
        self.reads += 1
        if self.reads > 2:
            raise ConnectionResetError("connection reset by peer")
        return b"x" * 16


def test_dropped_fetch_preserves_previous_file(tmp_path, monkeypatch):
    from repro.serve import ServeClient

    target = tmp_path / "job.npz"
    target.write_bytes(b"previous result")
    client = ServeClient("http://127.0.0.1:1")
    monkeypatch.setattr(client, "_request", lambda path: _ResetAfterTwoChunks())
    with pytest.raises(ConnectionResetError):
        client.fetch("j1", target)
    assert target.read_bytes() == b"previous result"
    assert [p.name for p in tmp_path.iterdir()] == [target.name]


def test_atomic_savez_appends_npz_suffix(tmp_path):
    from repro.utils.io import atomic_savez

    out = atomic_savez(tmp_path / "bare", x=np.arange(3))
    assert out.name == "bare.npz" and out.exists()
    with np.load(out) as data:
        assert np.array_equal(data["x"], np.arange(3))
