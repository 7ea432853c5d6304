"""Eleven invariants of ``src/repro``, checked on its syntax trees.

Each check takes ``(rel, tree)`` — a file's path inside the ``repro``
package (``store/index.py``) and its parsed module — and yields the nodes
that break its invariant; :func:`flagged` turns them into line numbers.
``test_src_holds`` runs every check over the package and lists each
violation as ``src/repro/<rel>:<line>``. ``tests/test_lint.py`` pins
what each check matches, and where, on small snippets placed at a
package-relative path. There is no suppression comment and no
allowlist: a violation is fixed in the code.

- ``sqlite-discipline``: SQLite is opened and written only through
  ``store/common.py`` (``connect_sqlite``: WAL and a busy timeout;
  ``run_immediate``: ``BEGIN IMMEDIATE`` retried whole on SQLITE_BUSY).
- ``atomic-io``: the layers that own durable files write them
  temp-then-rename through ``repro.utils.io``, so a process killed
  mid-write leaves the old file or none, never a truncated one.
- ``fft-isolation``: raw FFT libraries appear only in ``backend/``, so
  every transform hits the FFT counters.
- ``determinism``: physics code reads no wall clock and no unseeded or
  global random state; bitwise parity and the 1e-10 goldens rest on it.
- ``config-immutability``: a frozen instance is content-addressed once
  built, so ``object.__setattr__`` touches only ``self`` inside its own
  construction hooks (or anything in ``api/config.py``).
- ``pickle-safety``: nothing unpicklable (connections, locks, events,
  open files) is stored on the worker pool's objects or sent to a
  spawned process.
- ``sigma-image``: ``hamiltonian/``, ``observables/`` and ``scf/`` take
  sigma only as its eigenbasis image ``(phi~, d)``: they import neither
  ``diagonalize_sigma`` nor ``rotate_orbitals`` / ``unrotate_orbitals``,
  so only the propagators decompose.
- ``ledger-isolation``: the physics packages import nothing from
  ``repro.parallel`` or ``repro.perf`` and never name ``ledger`` (an
  attribute, or a ``getattr`` / ``hasattr`` string): modeled
  communication time is read only by ``parallel/``, ``perf/`` and the
  reports, per run or per session, never probed for per step or per SCF.
- ``tile-pair-loop``: only ``hamiltonian/fock.py`` calls
  ``symmetric_tile_pairs`` or ``tile_pair_partials``: the exchange's
  self-application is one rank program, which the serial operator and
  every rank of the distributed one run alike.
- ``libc-isolation``: only ``backend/`` imports ``ctypes``, so the C
  calls that change a whole process (glibc's malloc thresholds) have one
  owner, which runs them once in every process that computes.
- ``one-timer``: only ``trace.py`` reads ``time.perf_counter``,
  ``perf_counter_ns`` or ``process_time``, so every measured second is a
  span of the one recorder; ``time.time`` (timestamps) and
  ``time.monotonic`` (deadlines) stay free.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


# ---------------- name resolution ---------------------------------------------


def imports_of(tree):
    """Local name -> dotted origin for every import in ``tree``.

    ``import numpy.fft`` binds ``numpy``; ``import scipy.fft as sf``
    binds ``sf`` to ``scipy.fft``; ``from sqlite3 import connect`` binds
    ``connect`` to ``sqlite3.connect``. The package has no relative
    imports, so none are followed.
    """
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def dotted(node, imports):
    """Dotted origin of a ``Name``/``Attribute`` chain, or None.

    A name that was never imported resolves to itself, which is how the
    builtins ``open`` and ``object`` are seen. A chain rooted in a call
    or a subscript resolves to None.
    """
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([imports.get(node.id, node.id), *reversed(attrs)])


def calls(tree, imports):
    """Each call in ``tree`` with the dotted name of what it calls."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node, dotted(node.func, imports)


def argument(call, index, keyword):
    """A positional-or-keyword argument of ``call``, or None."""
    if len(call.args) > index:
        return call.args[index]
    return next((kw.value for kw in call.keywords if kw.arg == keyword), None)


def attr_of(call):
    """The method name of ``x.name(...)``, else None."""
    return call.func.attr if isinstance(call.func, ast.Attribute) else None


def text_of(node):
    """The value of a string literal, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def flagged(check, rel, tree):
    """Sorted line numbers of the distinct sites ``check`` yields (a nested
    attribute chain can reach one site twice)."""
    sites = {(node.lineno, node.col_offset) for node in check(rel, tree)}
    return [line for line, _ in sorted(sites)]


# ---------------- the ten checks ---------------------------------------------

SQLITE_HOME = ("store/common.py",)


def sqlite_discipline(rel, tree):
    if rel.startswith(SQLITE_HOME):
        return
    for call, name in calls(tree, imports_of(tree)):
        attr = attr_of(call)
        sql = text_of(call.args[0]) if call.args else None
        if (
            name == "sqlite3.connect"
            or (attr in ("commit", "rollback") and not call.args and not call.keywords)
            or (
                attr in ("execute", "executescript")
                and sql is not None
                and sql.lstrip().upper().startswith(("BEGIN", "COMMIT", "ROLLBACK"))
            )
        ):
            yield call


#: the writer itself, ``utils/io.py``, is outside this scope
DURABLE = ("store/", "serve/", "api/simulation.py", "api/ensemble.py")
SAVERS = ("numpy.savez", "numpy.savez_compressed", "numpy.save")


def _truncates(call, index):
    mode = text_of(argument(call, index, "mode")) or ""
    return "w" in mode or "x" in mode


def atomic_io(rel, tree):
    if not rel.startswith(DURABLE):
        return
    for call, name in calls(tree, imports_of(tree)):
        attr = attr_of(call)
        if (
            name in SAVERS
            or (name == "open" and _truncates(call, 1))
            # ``os.open`` is the lease's open-to-flock; nothing is written
            or (attr == "open" and name != "os.open" and _truncates(call, 0))
            or attr in ("write_text", "write_bytes")
        ):
            yield call


FFT_HOME = ("backend/",)
FFT_LIBS = ("numpy.fft", "scipy.fft", "scipy.fftpack", "pyfftw")


def _is_fft(name):
    return name is not None and any(
        name == lib or name.startswith(lib + ".") for lib in FFT_LIBS
    )


def fft_isolation(rel, tree):
    if rel.startswith(FFT_HOME):
        return
    imports = imports_of(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(_is_fft(alias.name) for alias in node.names):
                yield node
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if _is_fft(node.module) or any(
                _is_fft(f"{node.module}.{alias.name}") for alias in node.names
            ):
                yield node
        elif isinstance(node, ast.Attribute) and _is_fft(dotted(node, imports)):
            yield node


#: infrastructure (``store/``, ``serve/``, ``api/``, ``utils/``, ``perf/``)
#: stamps wall-clock times on rows and reports; physics must not
PHYSICS = (
    "backend/", "grid/", "hamiltonian/", "hartree/", "observables/",
    "occupation/", "parallel/", "pseudo/", "rt/", "scf/", "xc/", "constants.py",
)
#: seeded-generator machinery; every other ``np.random.*`` is global state
SEEDED_RNG = ("default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64")


def _unseeded(call):
    seed = argument(call, 0, "seed")
    return seed is None or (isinstance(seed, ast.Constant) and seed.value is None)


def determinism(rel, tree):
    if not rel.startswith(PHYSICS):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "random" for alias in node.names):
                yield node
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module == "random":
                yield node
    for call, name in calls(tree, imports_of(tree)):
        if name is None:
            continue
        if (
            name.split(".")[0] == "random"
            or name in ("time.time", "time.time_ns")
            or (name == "numpy.random.default_rng" and _unseeded(call))
            or (name.startswith("numpy.random.") and name.split(".")[-1] not in SEEDED_RNG)
        ):
            yield call


CONFIG_HOME = ("api/config.py",)
CONSTRUCTION_HOOKS = ("__init__", "__post_init__", "__new__", "__setstate__")


def config_immutability(rel, tree):
    if rel.startswith(CONFIG_HOME):
        return
    imports = imports_of(tree)

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (
                isinstance(child, ast.Call)
                and dotted(child.func, imports) == "object.__setattr__"
            ):
                on_self = (
                    bool(child.args)
                    and isinstance(child.args[0], ast.Name)
                    and child.args[0].id == "self"
                )
                if not (on_self and function in CONSTRUCTION_HOOKS):
                    yield child
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
            else:
                yield from visit(child, function)

    yield from visit(tree, None)


#: the modules whose objects and arguments cross the spawn boundary
BOUNDARY = ("serve/pool.py", "serve/worker.py")
HANDLES = (
    "sqlite3.connect", "open",
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Semaphore",
    "multiprocessing.Lock", "multiprocessing.RLock",
)
#: method names whose arguments get pickled
SHIPPERS = ("submit", "map", "apply_async", "starmap", "Process")


def _is_handle(name):
    return name in HANDLES or (name or "").split(".")[-1] == "connect_sqlite"


def _ships(call, imports):
    if isinstance(call.func, ast.Attribute):
        # covers ``mp.get_context("spawn").Process``, rooted in a call
        return call.func.attr in SHIPPERS
    return (dotted(call.func, imports) or "").split(".")[-1] == "Process"


def pickle_safety(rel, tree):
    if not rel.startswith(BOUNDARY):
        return
    imports = imports_of(tree)
    tainted = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and _is_handle(dotted(node.value.func, imports))
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    tainted.add(target.id)
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield node
    for call, _ in calls(tree, imports):
        if not _ships(call, imports):
            continue
        for arg in [*call.args, *(kw.value for kw in call.keywords)]:
            for sub in ast.walk(arg):
                if (
                    isinstance(sub, ast.Call) and _is_handle(dotted(sub.func, imports))
                ) or (isinstance(sub, ast.Name) and sub.id in tainted):
                    yield sub


#: the layers that take sigma only as its eigenbasis image
IMAGE_ONLY = ("hamiltonian/", "observables/", "scf/")
DECOMPOSITION = ("diagonalize_sigma", "rotate_orbitals", "unrotate_orbitals")


def _decomposes(name):
    return (
        name is not None
        and name.startswith("repro.occupation.")
        and name.rsplit(".", 1)[-1] in DECOMPOSITION
    )


def sigma_image(rel, tree):
    if not rel.startswith(IMAGE_ONLY):
        return
    imports = imports_of(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            if any(_decomposes(f"{node.module}.{alias.name}") for alias in node.names):
                yield node
        elif isinstance(node, ast.Attribute) and _decomposes(dotted(node, imports)):
            yield node


#: the physics packages
LEDGER_FREE = (
    "grid/", "hamiltonian/", "hartree/", "xc/", "pseudo/", "occupation/",
    "scf/", "rt/", "observables/",
)
ACCOUNTING = ("repro.parallel", "repro.perf")


def _accounting(module):
    return any(module == pkg or module.startswith(pkg + ".") for pkg in ACCOUNTING)


def ledger_isolation(rel, tree):
    if not rel.startswith(LEDGER_FREE):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(_accounting(alias.name) for alias in node.names):
                yield node
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if _accounting(node.module) or any(
                _accounting(f"{node.module}.{alias.name}") for alias in node.names
            ):
                yield node
        elif isinstance(node, ast.Attribute) and node.attr == "ledger":
            yield node
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and text_of(argument(node, 1, "name")) == "ledger"
        ):
            yield node


TILE_LOOP_HOME = ("hamiltonian/fock.py",)
TILE_LOOP = ("symmetric_tile_pairs", "tile_pair_partials")


def tile_pair_loop(rel, tree):
    if rel in TILE_LOOP_HOME:
        return
    for call, name in calls(tree, imports_of(tree)):
        if (attr_of(call) or (name or "").rsplit(".", 1)[-1]) in TILE_LOOP:
            yield call


LIBC_HOME = ("backend/",)


def libc_isolation(rel, tree):
    if rel.startswith(LIBC_HOME):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "ctypes" for alias in node.names):
                yield node
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module.split(".")[0] == "ctypes":
                yield node


TIMER_HOME = ("trace.py",)
TIMERS = ("time.perf_counter", "time.perf_counter_ns", "time.process_time")


def one_timer(rel, tree):
    if rel in TIMER_HOME:
        return
    imports = imports_of(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            if any(f"time.{alias.name}" in TIMERS for alias in node.names):
                yield node
        elif isinstance(node, (ast.Attribute, ast.Name)) and dotted(node, imports) in TIMERS:
            yield node


CHECKS = {
    "sqlite-discipline": sqlite_discipline,
    "atomic-io": atomic_io,
    "fft-isolation": fft_isolation,
    "determinism": determinism,
    "config-immutability": config_immutability,
    "pickle-safety": pickle_safety,
    "sigma-image": sigma_image,
    "ledger-isolation": ledger_isolation,
    "tile-pair-loop": tile_pair_loop,
    "libc-isolation": libc_isolation,
    "one-timer": one_timer,
}


# ---------------- the package holds -------------------------------------------


@pytest.fixture(scope="module")
def src_trees():
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.rglob("*.py"))
    }


@pytest.mark.parametrize("rule", sorted(CHECKS))
def test_src_holds(rule, src_trees):
    found = [
        f"src/repro/{rel}:{line}"
        for rel, tree in src_trees.items()
        for line in flagged(CHECKS[rule], rel, tree)
    ]
    assert found == []


def test_scopes_name_real_paths():
    """A renamed package must not switch a check off silently."""
    scopes = (
        SQLITE_HOME, DURABLE, FFT_HOME, PHYSICS, CONFIG_HOME, BOUNDARY, IMAGE_ONLY, LEDGER_FREE,
        TILE_LOOP_HOME, LIBC_HOME, TIMER_HOME,
    )
    missing = [
        entry
        for scope in scopes
        for entry in scope
        if not ((SRC / entry).is_dir() if entry.endswith("/") else (SRC / entry).is_file())
    ]
    assert missing == []
