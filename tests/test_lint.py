"""Static-analysis engine and rule tests.

Three layers:

* per-rule unit tests on small synthetic source snippets — a violating
  variant, a clean variant, and (via the engine) a suppressed variant;
* engine mechanics — file walking, package-relative scoping, inline
  suppressions, unknown-rule errors;
* the acceptance gates — ``src/repro`` self-lints clean, and the CLI
  verb round-trips text/JSON and the documented exit codes (0 clean /
  1 findings / 2 usage error).
"""

import json
from pathlib import Path

import pytest

from repro.api.cli import main
from repro.lint import (
    LintError,
    SourceModule,
    available_rules,
    format_json,
    format_text,
    lint_paths,
    lint_sources,
    package_rel,
    rule_catalogue,
)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

ALL_RULES = (
    "atomic-io",
    "config-immutability",
    "determinism",
    "fft-isolation",
    "pickle-safety",
    "sqlite-discipline",
)


def run_rule(source: str, rel: str, rules=None):
    """Lint one synthetic module pretending to live at ``rel``."""
    module = SourceModule.parse(
        Path(f"/synthetic/{rel}"), rel=rel, text=source, display=rel
    )
    return lint_sources([module], rules=rules)


def findings_of(source: str, rel: str, rule: str):
    return [f for f in run_rule(source, rel, rules=[rule]).findings]


# ---------------- registry --------------------------------------------------


def test_all_rules_registered():
    assert available_rules() == sorted(ALL_RULES)


def test_rule_catalogue_has_descriptions():
    catalogue = rule_catalogue()
    for name in ALL_RULES:
        assert catalogue[name]


def test_unknown_rule_is_usage_error():
    with pytest.raises(LintError):
        lint_sources([], rules=["no-such-rule"])


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
    found = findings_of(SQLITE_BAD, "store/index.py", "sqlite-discipline")
    messages = "\n".join(f.message for f in found)
    assert len(found) == 3
    assert "sqlite3.connect" in messages
    assert "BEGIN" in messages
    assert ".commit()" in messages
    assert found[0].line == 4


def test_sqlite_rule_clean_code_passes():
    assert not findings_of(SQLITE_CLEAN, "store/index.py", "sqlite-discipline")


def test_sqlite_rule_exempts_only_common():
    assert not findings_of(SQLITE_BAD, "store/common.py", "sqlite-discipline")
    # the schema module creates tables through run_immediate like everyone else
    assert len(findings_of(SQLITE_BAD, "store/schema.py", "sqlite-discipline")) == 3


def test_sqlite_rule_follows_import_alias():
    src = "from sqlite3 import connect\nconn = connect('x.db')\n"
    found = findings_of(src, "serve/queue.py", "sqlite-discipline")
    assert len(found) == 1


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


def test_atomic_io_flags_savez_open_w_write_text():
    found = findings_of(ATOMIC_BAD, "store/records.py", "atomic-io")
    assert len(found) == 4
    assert {f.line for f in found} == {4, 5, 7, 8}


def test_atomic_io_clean_and_append_pass():
    assert not findings_of(ATOMIC_CLEAN, "store/records.py", "atomic-io")


def test_atomic_io_only_in_durable_layers():
    # the same writes outside store//serve//api-writers are not this
    # rule's business (e.g. perf reports, examples)
    assert not findings_of(ATOMIC_BAD, "perf/report.py", "atomic-io")
    assert findings_of(ATOMIC_BAD, "serve/http.py", "atomic-io")
    assert findings_of(ATOMIC_BAD, "api/simulation.py", "atomic-io")


def test_atomic_io_skips_fd_lease_pattern():
    src = (
        "import fcntl, os\n"
        "fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)\n"
        "fcntl.flock(fd, fcntl.LOCK_EX)\n"
        "os.unlink(path)\n"
        "os.close(fd)\n"
    )
    assert not findings_of(src, "store/lease.py", "atomic-io")


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
    found = findings_of(FFT_BAD_ATTR, "hartree/poisson.py", "fft-isolation")
    assert len(found) == 2  # fftn and ifftn sites
    assert all("numpy.fft" in f.message for f in found)


def test_fft_rule_flags_every_import_form():
    found = findings_of(FFT_BAD_IMPORTS, "rt/propagator.py", "fft-isolation")
    assert len(found) == 4


def test_fft_rule_exempts_backend_package():
    assert not findings_of(FFT_BAD_ATTR, "backend/numpy_backend.py", "fft-isolation")


def test_fft_rule_ignores_docstrings_unlike_old_regex():
    src = '"""np.fft is banned here (this is prose, not code)."""\n'
    assert not findings_of(src, "hartree/poisson.py", "fft-isolation")


def test_fft_rule_clean_backend_calls_pass():
    assert not findings_of(FFT_CLEAN, "hartree/poisson.py", "fft-isolation")


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
    found = findings_of(DET_BAD, "rt/field.py", "determinism")
    # import random, time.time(), random.random() resolves via the import,
    # unseeded default_rng, legacy np.random.rand
    assert len(found) == 5
    messages = "\n".join(f.message for f in found)
    assert "wall clock" in messages
    assert "unseeded" in messages
    assert "global random state" in messages


def test_determinism_clean_seeded_code_passes():
    assert not findings_of(DET_CLEAN, "rt/field.py", "determinism")


def test_determinism_scopes_to_physics_only():
    # wall-clock timestamps are the store/serve layers' job
    assert not findings_of(DET_BAD, "store/common.py", "determinism")
    assert not findings_of(DET_BAD, "serve/worker.py", "determinism")
    assert not findings_of(DET_BAD, "utils/rng.py", "determinism")


# ---------------- config-immutability ---------------------------------------


FROZEN_BAD = """\
def tweak(config, nbands):
    object.__setattr__(config, "nbands", nbands)
"""

FROZEN_BAD_SELF = """\
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
    found = findings_of(FROZEN_BAD, "api/ensemble.py", "config-immutability")
    assert len(found) == 1
    assert "does not own" in found[0].message


def test_config_immutability_flags_self_mutation_after_ctor():
    found = findings_of(FROZEN_BAD_SELF, "grid/cell.py", "config-immutability")
    assert len(found) == 1
    assert "construction hooks" in found[0].message


def test_config_immutability_allows_post_init_and_config_py():
    assert not findings_of(FROZEN_CLEAN, "grid/cell.py", "config-immutability")
    assert not findings_of(FROZEN_BAD, "api/config.py", "config-immutability")


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
    found = findings_of(PICKLE_BAD, "serve/pool.py", "pickle-safety")
    assert len(found) == 4
    messages = "\n".join(f.message for f in found)
    assert "self.conn" in messages
    assert "self.lock" in messages
    assert "spawn boundary" in messages


def test_pickle_safety_clean_paths_and_plain_data_pass():
    assert not findings_of(PICKLE_CLEAN, "serve/pool.py", "pickle-safety")


def test_pickle_safety_scopes_to_boundary_modules():
    # a connection held by the queue (one per process, never pickled) is
    # that module's own business
    assert not findings_of(PICKLE_BAD, "serve/queue.py", "pickle-safety")


# ---------------- suppressions ----------------------------------------------


def test_inline_suppression_same_line_and_line_above():
    src = (
        "import numpy as np\n"
        "def persist(path, arrays):\n"
        "    np.savez(path, **arrays)  # repro: lint-ignore[atomic-io]\n"
        "    # repro: lint-ignore[atomic-io]\n"
        "    np.savez(path, **arrays)\n"
    )
    result = run_rule(src, "store/records.py", rules=["atomic-io"])
    assert result.clean
    assert result.suppressed == 2


def test_suppression_is_rule_specific():
    src = (
        "import numpy as np\n"
        "np.savez(p, **a)  # repro: lint-ignore[sqlite-discipline]\n"
    )
    result = run_rule(src, "store/records.py", rules=["atomic-io"])
    assert len(result.findings) == 1 and result.suppressed == 0


def test_bare_suppression_covers_all_rules():
    src = (
        "import numpy as np\n"
        "np.savez(p, **a)  # repro: lint-ignore\n"
    )
    result = run_rule(src, "store/records.py")
    assert result.clean and result.suppressed >= 1


# ---------------- engine mechanics ------------------------------------------


def test_package_rel_resolves_inside_repro():
    assert package_rel(SRC / "store" / "store.py") == "store/store.py"
    assert package_rel(SRC / "__main__.py") == "__main__.py"


def test_lint_paths_on_synthetic_package_tree(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "store").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "store" / "__init__.py").write_text("")
    (pkg / "store" / "index.py").write_text(SQLITE_BAD)
    result = lint_paths([pkg])
    assert [f.rule for f in result.findings].count("sqlite-discipline") == 3
    # the same tree, single-file invocation, same scoping
    single = lint_paths([pkg / "store" / "index.py"], rules=["sqlite-discipline"])
    assert len(single.findings) == 3


def test_lint_paths_missing_path_is_error(tmp_path):
    with pytest.raises(LintError):
        lint_paths([tmp_path / "nope"])


def test_lint_paths_unparseable_source_is_error(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    with pytest.raises(LintError):
        lint_paths([bad])


def test_report_formats(tmp_path):
    result = run_rule(SQLITE_BAD, "store/index.py", rules=["sqlite-discipline"])
    text = format_text(result)
    assert "sqlite-discipline" in text and "3 findings" in text
    data = json.loads(format_json(result))
    assert data["clean"] is False
    assert data["counts"]["sqlite-discipline"] == 3
    assert len(data["findings"]) == 3
    assert data["findings"][0]["line"] == 4


# ---------------- acceptance: self-lint + CLI --------------------------------


def test_self_lint_src_repro_is_clean():
    """The acceptance gate: all rules, whole package."""
    result = lint_paths([SRC])
    assert len(result.rules) == len(ALL_RULES)
    assert result.clean, format_text(result)


def test_cli_lint_clean_exits_zero(capsys):
    assert main(["lint", str(SRC)]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_cli_lint_findings_exit_one(tmp_path, capsys):
    bad = tmp_path / "store"
    bad.mkdir()
    (bad / "index.py").write_text(SQLITE_BAD)
    # rel falls back to the file name for non-package trees; put it in a
    # real package layout so scoping applies
    (tmp_path / "__init__.py").write_text("")
    (bad / "__init__.py").write_text("")
    assert main(["lint", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "sqlite-discipline" in out


def test_cli_lint_rule_subset_and_json(tmp_path, capsys):
    (tmp_path / "__init__.py").write_text("")
    (tmp_path / "store").mkdir()
    (tmp_path / "store" / "__init__.py").write_text("")
    (tmp_path / "store" / "index.py").write_text(SQLITE_BAD + ATOMIC_BAD)
    assert main([
        "lint", str(tmp_path), "--rules", "atomic-io", "--format", "json",
    ]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["rules"] == ["atomic-io"]
    assert "sqlite-discipline" not in data["counts"]


def test_cli_lint_unknown_rule_is_usage_error(capsys):
    assert main(["lint", str(SRC), "--rules", "nope"]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list"]) == 0
    out = capsys.readouterr().out
    for name in ALL_RULES:
        assert name in out


def test_cli_components_lists_lint_rules(capsys):
    assert main(["components"]) == 0
    out = capsys.readouterr().out
    assert "lint: " in out
    assert "fft-isolation" in out


def test_cli_validate_lint_flag(capsys):
    cfg = REPO / "examples" / "configs" / "ci_smoke.toml"
    assert main(["validate", str(cfg), "--lint"]) == 0
    out = capsys.readouterr().out
    assert "lint: 0 finding(s)" in out
