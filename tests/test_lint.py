"""What each invariant check of ``tests/test_invariants.py`` matches, and where.

Every rule has a violating snippet, a clean snippet and its scope cases.
A snippet is placed at a package-relative path (``store/index.py``) and
each test asserts the exact line numbers the check flags.
"""

import ast

from test_invariants import (
    atomic_io,
    config_immutability,
    determinism,
    fft_isolation,
    flagged,
    pickle_safety,
    sigma_image,
    sqlite_discipline,
)


def lines(check, source, rel):
    return flagged(check, rel, ast.parse(source))


# ---------------- sqlite-discipline -----------------------------------------


SQLITE_BAD = """\
import sqlite3

def open_index(path):
    conn = sqlite3.connect(path)
    conn.execute("BEGIN IMMEDIATE")
    conn.execute("INSERT INTO runs VALUES (1)")
    conn.commit()
    return conn
"""

SQLITE_CLEAN = """\
from repro.store.common import connect_sqlite, run_immediate

def open_index(path):
    conn = connect_sqlite(path)
    run_immediate(conn, lambda c: c.execute("INSERT INTO runs VALUES (1)"))
    return conn
"""


def test_sqlite_rule_flags_raw_connect_begin_and_commit():
    # sqlite3.connect, the BEGIN literal, the bare .commit()
    assert lines(sqlite_discipline, SQLITE_BAD, "store/index.py") == [4, 5, 7]


def test_sqlite_rule_clean_code_passes():
    assert lines(sqlite_discipline, SQLITE_CLEAN, "store/index.py") == []


def test_sqlite_rule_exempts_only_common():
    assert lines(sqlite_discipline, SQLITE_BAD, "store/common.py") == []
    # the schema module creates tables through run_immediate like everyone else
    assert lines(sqlite_discipline, SQLITE_BAD, "store/schema.py") == [4, 5, 7]


def test_sqlite_rule_follows_import_alias():
    aliased = "from sqlite3 import connect\nconn = connect('x.db')\n"
    assert lines(sqlite_discipline, aliased, "serve/queue.py") == [2]


# ---------------- atomic-io -------------------------------------------------


ATOMIC_BAD = """\
import numpy as np

def persist(path, arrays, meta):
    np.savez(path, **arrays)
    with open(path + ".json", "w") as fh:
        fh.write(meta)
    path_obj.write_text(meta)
    path_obj.open("wb")
"""

ATOMIC_CLEAN = """\
from repro.utils.io import atomic_savez, atomic_write_text

def persist(path, arrays, meta):
    atomic_savez(path, **arrays)
    atomic_write_text(str(path) + ".json", meta)
    with open(path, "rb") as fh:          # reads are fine
        fh.read()
    with log_path.open("a") as fh:        # append-only logs are fine
        fh.write(meta)
"""

LEASE = """\
import fcntl, os
fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
fcntl.flock(fd, fcntl.LOCK_EX)
os.unlink(path)
os.close(fd)
"""


def test_atomic_io_flags_savez_open_w_write_text():
    assert lines(atomic_io, ATOMIC_BAD, "store/records.py") == [4, 5, 7, 8]


def test_atomic_io_clean_and_append_pass():
    assert lines(atomic_io, ATOMIC_CLEAN, "store/records.py") == []


def test_atomic_io_only_in_durable_layers():
    # only the durable layers: perf reports and examples may write plainly
    assert lines(atomic_io, ATOMIC_BAD, "perf/report.py") == []
    assert lines(atomic_io, ATOMIC_BAD, "serve/http.py") == [4, 5, 7, 8]
    assert lines(atomic_io, ATOMIC_BAD, "api/simulation.py") == [4, 5, 7, 8]


def test_atomic_io_skips_fd_lease_pattern():
    assert lines(atomic_io, LEASE, "store/lease.py") == []


# ---------------- fft-isolation ---------------------------------------------


FFT_BAD_ATTR = """\
import numpy as np

def hartree(density):
    return np.fft.ifftn(np.fft.fftn(density))
"""

FFT_BAD_IMPORTS = """\
import scipy.fft as sf
from numpy import fft
from numpy.fft import fftn
import pyfftw
"""

FFT_CLEAN = """\
def hartree(grid, density):
    work = grid.backend.fftn(density)
    return grid.backend.ifftn(work)
"""


def test_fft_rule_flags_attribute_chains():
    # two sites, ifftn and fftn, on one line
    assert lines(fft_isolation, FFT_BAD_ATTR, "hartree/poisson.py") == [4, 4]


def test_fft_rule_flags_every_import_form():
    assert lines(fft_isolation, FFT_BAD_IMPORTS, "rt/propagator.py") == [1, 2, 3, 4]
    aliased = "from numpy import fft\nx = fft.fftn(y)\n"
    assert lines(fft_isolation, aliased, "xc/lda.py") == [1, 2]


def test_fft_rule_exempts_backend_package():
    assert lines(fft_isolation, FFT_BAD_ATTR, "backend/base.py") == []


def test_fft_rule_ignores_docstrings_unlike_old_regex():
    prose = '"""np.fft is banned here (this is prose, not code)."""\n'
    assert lines(fft_isolation, prose, "hartree/poisson.py") == []


def test_fft_rule_clean_backend_calls_pass():
    assert lines(fft_isolation, FFT_CLEAN, "hartree/poisson.py") == []


# ---------------- determinism -----------------------------------------------


DET_BAD = """\
import time
import random
import numpy as np

def kick(orbitals):
    seed = time.time()
    jitter = random.random()
    rng = np.random.default_rng()
    noise = np.random.rand(4)
    return orbitals
"""

DET_CLEAN = """\
import time
import numpy as np
from repro.utils.rng import default_rng

def kick(orbitals):
    t0 = time.perf_counter()          # instrumentation clocks are fine
    rng = default_rng(7)
    seeded = np.random.default_rng(1234)
    return orbitals
"""


def test_determinism_flags_wall_clock_and_unseeded_rng():
    # import random, time.time(), random.random(), unseeded default_rng,
    # legacy np.random.rand
    assert lines(determinism, DET_BAD, "rt/field.py") == [2, 6, 7, 8, 9]
    unseeded = "import numpy as np\nrng = np.random.default_rng(seed=None)\n"
    assert lines(determinism, unseeded, "constants.py") == [2]


def test_determinism_clean_seeded_code_passes():
    assert lines(determinism, DET_CLEAN, "rt/field.py") == []


def test_determinism_scopes_to_physics_only():
    # wall-clock timestamps are the store and serve layers' job
    for rel in ("store/common.py", "serve/worker.py", "utils/rng.py"):
        assert lines(determinism, DET_BAD, rel) == []


# ---------------- config-immutability ---------------------------------------


FROZEN_FOREIGN = """\
def tweak(config, nbands):
    object.__setattr__(config, "nbands", nbands)
"""

FROZEN_SELF_AFTER = """\
class Thing:
    def rescale(self, factor):
        object.__setattr__(self, "scale", factor)
"""

FROZEN_CLEAN = """\
class Cell:
    def __post_init__(self):
        object.__setattr__(self, "species", tuple(self.species))

def tweak(config, nbands):
    return config.replace(scf={"nbands": nbands})
"""


def test_config_immutability_flags_foreign_mutation():
    assert lines(config_immutability, FROZEN_FOREIGN, "api/ensemble.py") == [2]


def test_config_immutability_flags_self_mutation_after_ctor():
    assert lines(config_immutability, FROZEN_SELF_AFTER, "grid/cell.py") == [3]


def test_config_immutability_allows_post_init_and_config_py():
    assert lines(config_immutability, FROZEN_CLEAN, "grid/cell.py") == []
    assert lines(config_immutability, FROZEN_FOREIGN, "api/config.py") == []


# ---------------- pickle-safety ---------------------------------------------


PICKLE_BAD = """\
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
"""

PICKLE_CLEAN = """\
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
"""


def test_pickle_safety_flags_handles_on_self_and_shipped():
    # self.conn, self.lock, the tainted local shipped to Process, the open
    # handle shipped to submit
    assert lines(pickle_safety, PICKLE_BAD, "serve/pool.py") == [7, 8, 12, 16]


def test_pickle_safety_clean_paths_and_plain_data_pass():
    assert lines(pickle_safety, PICKLE_CLEAN, "serve/pool.py") == []


def test_pickle_safety_scopes_to_boundary_modules():
    # the queue's own connection (one per process, never pickled) is its business
    assert lines(pickle_safety, PICKLE_BAD, "serve/queue.py") == []


# ---------------- sigma-image -----------------------------------------------


SIGMA_BAD = """\
import repro.occupation.sigma as occ
from repro.occupation import diagonalize_sigma
from repro.occupation.sigma import hermitize, rotate_orbitals, unrotate_orbitals

def energy(phi, sigma):
    d, q = occ.diagonalize_sigma(hermitize(sigma))
    return occ.rotate_orbitals(phi, q), d
"""

SIGMA_CLEAN = """\
from repro.occupation.sigma import clip_and_normalize, density_from_orbitals_diag, hermitize

def density(grid, phi_t, d, n_electrons):
    rho = density_from_orbitals_diag(grid, phi_t, d)
    return clip_and_normalize(rho, n_electrons, grid.dv)
"""


def test_sigma_image_flags_every_import_and_attribute_form():
    # the package re-export, the module's names (one line), and two
    # attribute chains through a module alias
    assert lines(sigma_image, SIGMA_BAD, "observables/energy.py") == [2, 3, 6, 7]


def test_sigma_image_clean_image_consumer_passes():
    assert lines(sigma_image, SIGMA_CLEAN, "scf/groundstate.py") == []


def test_sigma_image_scopes_to_image_only_layers():
    assert lines(sigma_image, SIGMA_BAD, "hamiltonian/fock.py") == [2, 3, 6, 7]
    # the propagators and the occupation algebra itself decompose
    assert lines(sigma_image, SIGMA_BAD, "rt/propagator.py") == []
    assert lines(sigma_image, SIGMA_BAD, "occupation/sigma.py") == []
