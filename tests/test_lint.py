"""What each rule of ``tests/test_invariants.py`` flags, and where.

:data:`CASES` holds, per rule of ``RULES``, a path in the rule's scope
with one snippet there holding the forms the rule flags and the lines
it flags, one clean snippet, and one path outside the scope, where the
flagged snippet passes.  The named tests after the table hold one more
form each.  Paths are package-relative (``store/index.py``).
"""

import ast
from typing import List, NamedTuple

import pytest

from test_invariants import RULES, flagged


class Case(NamedTuple):
    at: str
    bad: str
    lines: List[int]
    clean: str
    outside: str


CASES = {
    "sqlite-discipline": Case(
        # the schema module creates tables through run_immediate like everyone else
        at="store/schema.py",
        bad="""\
import sqlite3
def open_index(path):
    conn = sqlite3.connect(path)
    conn.execute("BEGIN IMMEDIATE")
    conn.execute("INSERT INTO runs VALUES (1)")
    conn.commit()
    conn.rollback()
""",
        # sqlite3.connect, the BEGIN literal, bare .commit() / .rollback()
        lines=[3, 4, 6, 7],
        clean="""\
from repro.store.common import connect_sqlite, run_immediate
def open_index(path):
    conn = connect_sqlite(path)
    run_immediate(conn, lambda c: c.execute("INSERT INTO runs VALUES (1)"))
    return conn
""",
        outside="store/common.py",
    ),
    "atomic-io": Case(
        at="api/simulation.py",
        bad="""\
import numpy as np
def persist(path, arrays, meta):
    np.savez(path, **arrays)
    with open(path + ".json", "w") as fh:
        fh.write(meta)
    path_obj.write_text(meta)
    path_obj.open("wb")
""",
        lines=[3, 4, 6, 7],
        clean="""\
from repro.utils.io import atomic_savez, atomic_write_text
def persist(path, arrays, meta):
    atomic_savez(path, **arrays)
    atomic_write_text(str(path) + ".json", meta)
    with open(path, "rb") as fh:          # reads are fine
        fh.read()
    with log_path.open("a") as fh:        # append-only logs are fine
        fh.write(meta)
""",
        # perf reports and examples may write plainly
        outside="perf/experiments.py",
    ),
    "fft-isolation": Case(
        at="hartree/poisson.py",
        bad="""\
import scipy.fft as sf
from numpy import fft
from numpy.fft import fftn
import pyfftw
def hartree(density):
    return fft.fftn(density)
""",
        # every import form, then a call through the imported module
        lines=[1, 2, 3, 4, 6],
        clean="""\
def hartree(grid, density):
    work = grid.backend.fftn(density)
    return grid.backend.ifftn(work)
""",
        outside="backend/base.py",
    ),
    "determinism": Case(
        at="rt/field.py",
        bad="""\
import time
import random
import numpy as np
def kick(orbitals):
    seed = time.time()
    jitter = random.random()
    rng = np.random.default_rng()
    noise = np.random.rand(4)
    again = np.random.default_rng(seed=None)
    return orbitals
""",
        # import random, time.time(), random.random(), np.random.rand, two unseeded generators
        lines=[2, 5, 6, 7, 8, 9],
        clean="""\
import time
import numpy as np
from repro.utils.rng import default_rng
def kick(orbitals, budget_s):
    deadline = time.monotonic() + budget_s   # a deadline is not a seed
    rng = default_rng(7)
    seeded = np.random.default_rng(1234)
    return orbitals
""",
        # wall-clock timestamps are the store and serve layers' job
        outside="store/common.py",
    ),
    "config-immutability": Case(
        at="grid/cell.py",
        bad="""\
def tweak(config, nbands):
    object.__setattr__(config, "nbands", nbands)
""",
        # a foreign instance
        lines=[2],
        clean="""\
class Cell:
    def __post_init__(self):
        object.__setattr__(self, "species", tuple(self.species))
def tweak(config, nbands):
    return config.replace(scf={"nbands": nbands})
""",
        outside="api/config.py",
    ),
    "pickle-safety": Case(
        at="serve/pool.py",
        bad="""\
import multiprocessing as mp
import sqlite3
import threading
class Pool:
    def __init__(self, path):
        self.conn = sqlite3.connect(path)
        self.lock = threading.Lock()
    def launch(self, path):
        conn = sqlite3.connect(path)
        proc = mp.get_context("spawn").Process(target=work, args=(conn,))
        proc.start()
    def enqueue(self, pool, path):
        pool.submit(work, open(path, "rb"))
""",
        # self.conn, self.lock, a tainted local shipped to Process, an open file to submit
        lines=[6, 7, 10, 13],
        clean="""\
import multiprocessing as mp
class Pool:
    def __init__(self, store_root, queue):
        self.store_root = str(store_root)
        self.queue = queue
    def launch(self, worker_id, options):
        proc = mp.get_context("spawn").Process(
            target=work, args=(self.store_root, worker_id, dict(options))
        )
        proc.start()
""",
        # the queue's own connection (one per process, never pickled) is its business
        outside="serve/queue.py",
    ),
    "sigma-image": Case(
        at="observables/energy.py",
        bad="""\
import repro.occupation.sigma as occ
from repro.occupation import diagonalize_sigma
from repro.occupation.sigma import hermitize, rotate_orbitals, unrotate_orbitals
def energy(phi, sigma):
    d, q = occ.diagonalize_sigma(hermitize(sigma))
    return occ.rotate_orbitals(phi, q), d
""",
        # the package re-export, the module's names (one line), two chains through an alias
        lines=[2, 3, 5, 6],
        clean="""\
from repro.occupation.sigma import clip_and_normalize, density_from_orbitals_diag, hermitize
def density(grid, phi_t, d, n_electrons):
    rho = density_from_orbitals_diag(grid, phi_t, d)
    return clip_and_normalize(rho, n_electrons, grid.dv)
""",
        # the propagators decompose
        outside="rt/propagator.py",
    ),
    "ledger-isolation": Case(
        at="rt/propagator.py",
        bad="""\
import repro.perf.model
from repro.parallel.ledger import CostLedger
from repro import parallel
from repro.trace import recorder
def propagate(self, state):
    ledger = getattr(self.ham.fock, "ledger", None)
    seconds = self.ham.fock.ledger.total_seconds()
    waited = recorder().counts["parallel.comm.wait.seconds"]
    if hasattr(self.ham.fock, "ledger"):
        return state
""",
        # the three accounting imports and the recorder's, the getattr string,
        # the attribute, the recorder and a count's name (two sites), the hasattr
        lines=[1, 2, 3, 4, 6, 7, 8, 8, 9],
        clean="""\
from repro.hamiltonian.fock import FockExchangeOperator
from repro.trace import traced
@traced("rt.step")
def propagate(self, state, ledger=None):
    # a local called ledger is not a probe; only the attribute and its string are
    stats = getattr(self.ham.fock, "batch_size", None)
    return state, ledger, "parallel"
""",
        # the substrate is where the ledger lives
        outside="parallel/context.py",
    ),
    "tile-pair-loop": Case(
        at="parallel/distfock.py",
        bad="""\
import repro.hamiltonian.fock as fock
from repro.hamiltonian.fock import symmetric_tile_pairs as pairs
def apply_diag(self, phi, weights, tiles):
    for i, j in pairs(tiles):
        self.tile_pair_partials(phi, weights, tiles[i], tiles[j])
    return list(fock.symmetric_tile_pairs(tiles))
""",
        # the aliased function, the method, the module attribute
        lines=[4, 5, 6],
        clean="""\
from repro.hamiltonian.fock import band_tiles, symmetric_tile_pairs
def apply_diag(self, phi, weights):
    # importing the names is not running the loop; a rank program is
    programs = [self.self_application(phi, weights, len(phi), r, 2) for r in range(2)]
    return self.comm.run(programs), band_tiles(len(phi), 16)
""",
        outside="hamiltonian/fock.py",
    ),
    "dense-exchange-entry": Case(
        at="scf/groundstate.py",
        bad="""\
from repro.hamiltonian.ace import ACEOperator
def outer_pass(ham, grid, phi, phi_r, occ):
    vx_r = ham.fock.apply_diag(phi_r, occ)
    ace = ACEOperator.from_dense_action(grid, phi, grid.to_sphere(vx_r))
    kernel = getattr(ham.fock, "apply_diag")
    return ace, kernel
""",
        # the kernel, the compression, then the kernel by name
        lines=[3, 4, 5],
        clean="""\
def outer_pass(ham, phi, phi_r, occ):
    # the entry answers the build's repeat of the energy's request from its record
    vx_r = ham.dense_exchange(phi_r, occ)
    ex = ham.fock.exchange_energy(phi_r, occ, vx_phi=vx_r)
    ham.set_ace(ham.build_ace(phi_r, occ, c=phi))
    return ex
""",
        outside="hamiltonian/hamiltonian.py",
    ),
    "libc-isolation": Case(
        at="serve/worker.py",
        bad="""\
import ctypes
import ctypes.util as cu
from ctypes import CDLL
def pin(threshold):
    CDLL(None).mallopt(-3, threshold)
""",
        # every import form, then the imported name
        lines=[1, 2, 3, 5],
        clean="""\
import os
from repro.backend import Backend
def pin(workers):
    # building the engine is what applies the process's allocator policy
    return Backend(workers), os.environ.get("CTYPES")
""",
        outside="backend/base.py",
    ),
    "one-timer": Case(
        at="api/runs.py",
        bad="""\
import time
from time import perf_counter_ns as ns
def run(sim):
    t0 = time.perf_counter()
    clock = time.process_time
    sim.run()
    return time.perf_counter() - t0, clock(), ns()
""",
        # the aliased import, two attribute reads, then an attribute and the alias on one line
        lines=[2, 4, 5, 7, 7],
        clean="""\
import time
from repro.trace import span
def run(sim, budget_s):
    deadline = time.monotonic() + budget_s   # deadlines and timestamps are fine
    with span("api.run") as elapsed:
        sim.run()
        return elapsed(), time.time(), time.monotonic() < deadline
""",
        outside="trace.py",
    ),
    "one-result-reader": Case(
        at="store/store.py",
        bad="""\
from repro.api.simulation import open_result_npz
from repro.rt.propagator import PropagationRecord
import repro.rt as rt
def load(path):
    with open_result_npz(path) as data:
        arrays = {k: data[k] for k in data.files}
    record = PropagationRecord.from_arrays(arrays)
    return record, rt.PropagationRecord.from_arrays(arrays)
""",
        # the import, its call, then both spellings of the rebuild
        lines=[1, 5, 7, 8],
        clean="""\
from repro.api.simulation import read_result_npz
def load(path):
    return read_result_npz(path).observables()
""",
        outside="api/simulation.py",
    ),
    "one-result-writer": Case(
        at="serve/worker.py",
        bad="""\
from repro.api.simulation import write_result_npz
from repro.utils.io import atomic_savez
import repro.api.simulation as sim
def persist(path, result, arrays):
    write_result_npz(path, result)
    atomic_savez(path, **arrays)
    return sim.write_result_npz(path, result)
""",
        # both imports, both calls, then the writer through its module
        lines=[1, 2, 5, 6, 7],
        clean="""\
def persist(path, result, store):
    result.save_npz(path)
    return store.add_run(result)
""",
        outside="api/simulation.py",
    ),
    "one-liveness-rule": Case(
        at="store/common.py",
        bad="""\
import fcntl
from os import kill
import os
def alive(pid, fd):
    fcntl.flock(fd, fcntl.LOCK_SH)
    os.kill(pid, 0)
    return kill(pid, 0)
""",
        # both imports, the lock call and its flag, then both spellings of the signal
        lines=[1, 2, 5, 5, 6, 7],
        clean="""\
import os
from repro.store.lease import held
def alive(root, worker_id, proc):
    proc.kill()  # a process object of our own, not a pid
    return held(os.path.join(root, "workers", worker_id + ".lock"))
""",
        outside="store/lease.py",
    ),
}


def lines(rule, source, rel):
    return flagged(RULES[rule], rel, ast.parse(source))


def test_every_rule_has_its_cases():
    """A rule joins the table with a flagged, a clean and an outside case."""
    assert sorted(CASES) == sorted(RULES)
    for name, case in CASES.items():
        assert case.lines and case.clean.strip(), name
        assert RULES[name].reads(case.at) and not RULES[name].reads(case.outside), name


@pytest.mark.parametrize("rule", sorted(CASES))
def test_rule_flags_every_form(rule):
    assert lines(rule, CASES[rule].bad, CASES[rule].at) == CASES[rule].lines


@pytest.mark.parametrize("rule", sorted(CASES))
def test_rule_passes_clean_code(rule):
    assert lines(rule, CASES[rule].clean, CASES[rule].at) == []


@pytest.mark.parametrize("rule", sorted(CASES))
def test_rule_skips_code_outside_its_scope(rule):
    assert lines(rule, CASES[rule].bad, CASES[rule].outside) == []


# forms each rule reads apart from its table case


def test_sqlite_rule_follows_import_alias():
    aliased = "from sqlite3 import connect\nconn = connect('x.db')\n"
    assert lines("sqlite-discipline", aliased, "serve/queue.py") == [2]


def test_atomic_io_skips_fd_lease_pattern():
    lease = "import fcntl, os\nfd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)\nfcntl.flock(fd, fcntl.LOCK_EX)\n"
    assert lines("atomic-io", lease, "store/lease.py") == []


def test_fft_rule_flags_attribute_chains():
    # two sites, ifftn and fftn, on one line
    chains = "import numpy as np\ndef hartree(density):\n    return np.fft.ifftn(np.fft.fftn(density))\n"
    assert lines("fft-isolation", chains, "hartree/poisson.py") == [3, 3]


def test_fft_rule_ignores_docstrings_unlike_old_regex():
    prose = '"""np.fft is banned here (this is prose, not code)."""\n'
    assert lines("fft-isolation", prose, "hartree/poisson.py") == []


def test_config_immutability_flags_self_mutation_after_ctor():
    after = "class Thing:\n    def rescale(self, factor):\n        object.__setattr__(self, \"scale\", factor)\n"
    assert lines("config-immutability", after, "grid/cell.py") == [3]


def test_ledger_isolation_owner_reaches_the_recorder_but_names_no_comm_count():
    # ``lockstep`` reads the transform count; a ``parallel.*`` count stays out of reach
    read = (
        "from repro.trace import recorder\n"
        "counts = recorder().counts\n"
        "seconds = counts['parallel.comm.wait.seconds']\n"
    )
    assert lines("ledger-isolation", read, "hamiltonian/fock.py") == [3]
    assert lines("ledger-isolation", read, "hamiltonian/ace.py") == [1, 2, 3]


def test_one_result_writer_owners_reach_only_their_own_name():
    both = "from repro.api.simulation import write_result_npz\nfrom repro.utils.io import atomic_savez\n"
    assert lines("one-result-writer", both, "store/store.py") == [2]
    assert lines("one-result-writer", both, "store/blobs.py") == [1]
