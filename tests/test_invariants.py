"""Eleven invariants of ``src/repro``, checked on its syntax trees.

:data:`RULES` is their one table: each row names the files its rule
reads (paths inside the ``repro`` package, ``store/`` for a package) and
what it forbids there.  Six rules forbid imports, names or attributes and
share one walker, :func:`forbidden`; five carry their own check.
``test_src_holds`` lists each violation in the package as
``src/repro/<rel>:<line>``; ``tests/test_lint.py`` pins what each rule
flags, and where, on snippets.  Nothing suppresses a violation: it is
fixed in the code.
"""

import ast
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple

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


def reaches(name, origins):
    """Whether the dotted ``name`` is one of ``origins`` or lies under one."""
    return name is not None and any(name == o or name.startswith(o + ".") for o in origins)


# ---------------- the table ----------------------------------------------------
class Rule(NamedTuple):
    """One invariant: the files it reads and what it forbids in them."""

    #: it reads the files under ``inside`` (every file when empty) that are
    #: not under ``home``
    inside: Tuple[str, ...] = ()
    home: Tuple[str, ...] = ()
    #: dotted names, modules or their members, that a file neither
    #: imports nor reaches through a name or an attribute chain
    names: Tuple[str, ...] = ()
    #: member names read in no form: ``x.name``, ``getattr(x, "name")``,
    #: ``hasattr(x, "name")``, or a name imported as ``<module>.name``
    attrs: Tuple[str, ...] = ()
    #: the check of a rule of another shape: ``tree`` -> offending nodes
    check: Optional[Callable] = None

    def reads(self, rel):
        return (not self.inside or rel.startswith(self.inside)) and not rel.startswith(self.home)


def forbidden(rule, tree):
    """The imports, names, attribute chains and probes of ``tree`` that
    reach ``rule.names`` or read ``rule.attrs``."""
    imports = imports_of(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(reaches(alias.name, rule.names) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = not node.level and (
                reaches(node.module, rule.names)
                or any(reaches(f"{node.module}.{alias.name}", rule.names) for alias in node.names)
            )
        elif isinstance(node, ast.Attribute):
            hit = node.attr in rule.attrs or reaches(dotted(node, imports), rule.names)
        elif isinstance(node, ast.Name):
            origin = imports.get(node.id)
            hit = reaches(origin, rule.names) or (origin or "").rsplit(".", 1)[-1] in rule.attrs
        elif isinstance(node, ast.Call) and dotted(node.func, imports) in ("getattr", "hasattr"):
            hit = text_of(argument(node, 1, "name")) in rule.attrs
        else:
            hit = False
        if hit:
            yield node


def flagged(rule, rel, tree):
    """Sorted line numbers of the distinct sites ``rule`` flags in the file
    ``rel`` (a nested attribute chain can reach one site twice)."""
    if not rule.reads(rel):
        return []
    nodes = rule.check(tree) if rule.check else forbidden(rule, tree)
    return [line for line, _ in sorted({(node.lineno, node.col_offset) for node in nodes})]


# ---------------- the five checks of their own shape -----------------------------
def sqlite_discipline(tree):
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


SAVERS = ("numpy.savez", "numpy.savez_compressed", "numpy.save")


def _truncates(call, index):
    mode = text_of(argument(call, index, "mode")) or ""
    return "w" in mode or "x" in mode


def atomic_io(tree):
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


#: seeded-generator machinery; every other ``np.random.*`` is global state
SEEDED_RNG = ("default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64")


def _unseeded(call):
    seed = argument(call, 0, "seed")
    return seed is None or (isinstance(seed, ast.Constant) and seed.value is None)


def determinism(tree):
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


CONSTRUCTION_HOOKS = ("__init__", "__post_init__", "__new__", "__setstate__")


def config_immutability(tree):
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


HANDLES = (
    "sqlite3.connect", "open", "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Semaphore", "multiprocessing.Lock", "multiprocessing.RLock",
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


def pickle_safety(tree):
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


PHYSICS = (
    "grid/", "hamiltonian/", "hartree/", "xc/", "pseudo/", "occupation/", "scf/", "rt/",
    "observables/",
)

RULES = {
    # SQLite is opened and written only through ``store/common.py``
    # (``connect_sqlite``: WAL and a busy timeout; ``run_immediate``:
    # ``BEGIN IMMEDIATE`` retried whole on SQLITE_BUSY)
    "sqlite-discipline": Rule(home=("store/common.py",), check=sqlite_discipline),
    # the layers that own durable files write them temp-then-rename
    # through ``repro.utils.io`` (itself out of scope), so a process killed
    # mid-write leaves the old file or none, never a truncated one
    "atomic-io": Rule(
        inside=("store/", "serve/", "api/simulation.py", "api/ensemble.py"), check=atomic_io
    ),
    # raw FFT libraries appear only in ``backend/``, so every transform is counted
    "fft-isolation": Rule(
        home=("backend/",), names=("numpy.fft", "scipy.fft", "scipy.fftpack", "pyfftw")
    ),
    # physics and its substrate read no wall clock and no unseeded or global
    # random state (bitwise parity and the 1e-10 goldens rest on it); the
    # infrastructure stamps wall-clock times on rows and reports
    "determinism": Rule(
        inside=(*PHYSICS, "backend/", "parallel/", "constants.py"), check=determinism
    ),
    # a frozen instance is content-addressed once built: ``object.__setattr__``
    # touches only ``self`` in its own construction hooks
    "config-immutability": Rule(home=("api/config.py",), check=config_immutability),
    # nothing unpicklable (connections, locks, events, open files) is stored
    # on the worker pool's objects or sent to a spawned process
    "pickle-safety": Rule(inside=("serve/pool.py", "serve/worker.py"), check=pickle_safety),
    # these layers take sigma only as its eigenbasis image ``(phi~, d)``:
    # only the propagators decompose and rotate
    "sigma-image": Rule(
        inside=("hamiltonian/", "observables/", "scf/"),
        names=tuple(
            f"repro.occupation{module}.{name}" for module in ("", ".sigma")
            for name in ("diagonalize_sigma", "rotate_orbitals", "unrotate_orbitals")
        ),
    ),
    # modeled communication time is read only by ``parallel/``, ``perf/``
    # and the reports, per run or per session, never probed per step or per SCF
    "ledger-isolation": Rule(
        inside=PHYSICS, names=("repro.parallel", "repro.perf"), attrs=("ledger",)
    ),
    # the exchange's self-application is one rank program, which the serial
    # operator and every rank of the distributed one run alike
    "tile-pair-loop": Rule(
        home=("hamiltonian/fock.py",), attrs=("symmetric_tile_pairs", "tile_pair_partials")
    ),
    # the C calls that change a whole process (glibc's malloc thresholds)
    # have one owner, which runs them once in every process that computes
    "libc-isolation": Rule(home=("backend/",), names=("ctypes",)),
    # every measured second is a span of the one recorder; ``time.time``
    # (timestamps) and ``time.monotonic`` (deadlines) stay free
    "one-timer": Rule(
        home=("trace.py",),
        names=("time.perf_counter", "time.perf_counter_ns", "time.process_time"),
    ),
}


# ---------------- the package holds -------------------------------------------
@pytest.fixture(scope="module")
def src_trees():
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(SRC.rglob("*.py"))
    }


@pytest.mark.parametrize("rule", sorted(RULES))
def test_src_holds(rule, src_trees):
    found = [
        f"src/repro/{rel}:{line}"
        for rel, tree in src_trees.items()
        for line in flagged(RULES[rule], rel, tree)
    ]
    assert found == []


def test_scopes_name_real_paths():
    """A renamed package must not switch a rule off silently."""
    missing = [
        entry
        for rule in RULES.values()
        for entry in (*rule.inside, *rule.home)
        if not ((SRC / entry).is_dir() if entry.endswith("/") else (SRC / entry).is_file())
    ]
    assert missing == []
