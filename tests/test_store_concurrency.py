"""Concurrent multi-process writers against one sqlite-indexed store.

Four spawned processes hammer the same ``index.sqlite`` with writes at
once — the WAL + ``BEGIN IMMEDIATE`` + busy-retry stack in
:mod:`repro.store.common` must serialize them without a single
``database is locked`` escaping.  The worker must be a module-level
function: the spawn start method pickles it by qualified name.
"""

import json
import multiprocessing as mp
import sqlite3

import numpy as np
import pytest

from repro.api import SimulationConfig, SimulationResult
from repro.constants import AU_PER_ATTOSECOND
from repro.rt.propagator import PropagationRecord, TDState
from repro.store import ResultStore, common
from repro.store.common import connect_sqlite, run_immediate
from repro.store.store import inspect_store

BASE = {
    "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "lda"},
    "scf": {"nbands": 20, "density_tol": 1e-4, "max_scf": 40},
    "field": {"kind": "static_kick", "params": {"kick": 0.001}},
    "propagation": {"propagator": "ptim", "dt_as": 50.0, "n_steps": 2},
}

N_PROCS = 4
RUNS_EACH = 12


def _config(tag: int) -> SimulationConfig:
    data = json.loads(json.dumps(BASE))
    data["field"]["params"]["kick"] = 1e-4 * (tag + 1)
    return SimulationConfig.from_dict(data)


def _arrays(seed: int):
    """A whole run of ``BASE`` (two steps, each recorded), the store's rule."""
    rng = np.random.default_rng(seed)
    return {
        "times": np.arange(3.0) * (BASE["propagation"]["dt_as"] * AU_PER_ATTOSECOND),
        "dipole": rng.normal(size=(3, 3)),
        "energy": rng.normal(size=3),
        "particle_number": np.full(3, 8.0),
        "field": rng.normal(size=(3, 3)),
    }


def _state(seed: int) -> TDState:
    rng = np.random.default_rng(seed)
    return TDState(
        phi=rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4)),
        sigma=np.zeros((2, 2), dtype=complex),
        time=1.0,
    )


def _hammer(root: str, proc: int, runs: int) -> None:
    store = ResultStore(root, create=False)
    try:
        for i in range(runs):
            tag = proc * runs + i
            record = PropagationRecord.from_arrays(_arrays(tag))
            store.add_run(SimulationResult(_config(tag), record, _state(tag)))
    finally:
        store.close()


def test_four_process_write_hammer(tmp_path):
    root = tmp_path / "store"
    ResultStore.ensure(root).close()
    ctx = mp.get_context("spawn")
    procs = [
        ctx.Process(target=_hammer, args=(str(root), p, RUNS_EACH))
        for p in range(N_PROCS)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=180)
    assert [p.exitcode for p in procs] == [0] * N_PROCS

    store = ResultStore(root, create=False)
    try:
        assert len(store) == N_PROCS * RUNS_EACH
        rows = store.query(status="ok")
        assert len(rows) == N_PROCS * RUNS_EACH
        assert len({r.run_id for r in rows}) == N_PROCS * RUNS_EACH
        # paging slices the same ordering the unpaged query uses
        paged = store.query(limit=10) + store.query(limit=None, offset=10)
        assert [r.run_id for r in paged] == [r.run_id for r in store.query()]
        # spot-check one run fully materializes after the stampede
        run_id = rows[0].run_id
        arrays = store.load_result(run_id).observables()
        assert arrays["times"].shape == (3,)
    finally:
        store.close()

    check = inspect_store(root)
    assert check.meta["backend"] == "sqlite"


def _two_connections(tmp_path):
    """One index, a holder at the default busy timeout and a writer that
    gives up on a held lock after 10 ms."""
    path = tmp_path / "index.sqlite"
    holder = connect_sqlite(path)
    holder.execute("CREATE TABLE t (x INTEGER)")
    return holder, connect_sqlite(path, timeout_s=0.01)


def test_a_busy_transaction_is_retried_whole_once_the_lock_is_released(tmp_path, monkeypatch):
    """A second connection holds the write lock past the busy timeout: the
    ``BEGIN IMMEDIATE`` fails busy, backs off and begins again, and the
    body runs once, with the lock held, after the holder commits."""
    holder, writer = _two_connections(tmp_path)
    holder.execute("BEGIN IMMEDIATE")
    holder.execute("INSERT INTO t VALUES (1)")
    sleeps, seen = [], []

    def backoff(seconds):  # the holder commits during the first backoff
        sleeps.append(seconds)
        if holder.in_transaction:
            holder.execute("COMMIT")

    def body(conn):
        seen.append(conn.execute("SELECT COUNT(*) FROM t").fetchone()[0])
        conn.execute("INSERT INTO t VALUES (2)")
        return "committed"

    monkeypatch.setattr(common.time, "sleep", backoff)
    try:
        assert run_immediate(writer, body) == "committed"
        assert sleeps == [0.02] and seen == [1]
        assert [x for (x,) in holder.execute("SELECT x FROM t ORDER BY x")] == [1, 2]
    finally:
        holder.close()
        writer.close()


def test_a_non_busy_error_raises_at_once(tmp_path, monkeypatch):
    holder, writer = _two_connections(tmp_path)
    sleeps, runs = [], []

    def body(conn):
        runs.append(1)
        conn.execute("INSERT INTO no_such_table VALUES (1)")

    monkeypatch.setattr(common.time, "sleep", sleeps.append)
    try:
        with pytest.raises(sqlite3.OperationalError, match="no such table"):
            run_immediate(writer, body)
        assert runs == [1] and sleeps == [] and not writer.in_transaction
    finally:
        holder.close()
        writer.close()
