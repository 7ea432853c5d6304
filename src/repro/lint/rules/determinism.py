"""``determinism`` — physics code contains no wall-clock or unseeded
randomness.

The regression harness gates trajectories at 1e-10 and the distributed
substrate promises *bitwise* serial parity; both are void the moment a
physics module consults ``time.time()`` or global random state.  Inside
the physics packages this rule bans:

- ``time.time()`` / ``time.time_ns()`` (wall clock in numerics; timing
  belongs to the caller that reports it — the run kernel in
  ``repro/api/runs.py`` — and metadata timestamps to the store layer);
- the stdlib ``random`` module entirely (unseeded global state);
- NumPy's legacy global-state API (``np.random.rand``, ``np.random.seed``,
  ...) and ``np.random.default_rng()`` *without an explicit seed* — the
  one blessed seeding point is ``repro.utils.rng.default_rng``.

Infrastructure layers (``store/``, ``serve/``, ``api/``, ``utils/``,
``perf/``) are out of scope: wall-clock timestamps on index rows and
benchmark timers are their job.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.astutil import ImportMap
from repro.lint.findings import Finding, SourceModule
from repro.lint.registry import register_rule
from repro.lint.rules import in_scope

RULE = "determinism"

#: the bitwise-reproducible numerics packages this rule polices
PHYSICS_DIRS = (
    "backend/",
    "fft/",
    "grid/",
    "hamiltonian/",
    "hartree/",
    "observables/",
    "occupation/",
    "parallel/",
    "pseudo/",
    "rt/",
    "scf/",
    "xc/",
)
PHYSICS_FILES = ("constants.py",)

#: np.random attributes that are fine: seeded-generator machinery
_NP_RANDOM_OK = ("default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64")

_RNG_HINT = "seed through repro.utils.rng.default_rng (fixed default seed)"


def _unseeded_default_rng(node: ast.Call) -> bool:
    if node.args:
        first = node.args[0]
        return isinstance(first, ast.Constant) and first.value is None
    seeds = [kw for kw in node.keywords if kw.arg == "seed"]
    if seeds:
        value = seeds[0].value
        return isinstance(value, ast.Constant) and value.value is None
    return True


@register_rule(
    RULE,
    "no wall-clock or unseeded randomness in physics modules (bitwise parity)",
)
def check(module: SourceModule, imports: ImportMap) -> Iterable[Finding]:
    if not in_scope(module.rel, dirs=PHYSICS_DIRS, files=PHYSICS_FILES):
        return
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield module.finding(
                        node, RULE,
                        "stdlib random is unseeded global state",
                        hint=_RNG_HINT,
                    )
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if node.module == "random":
                yield module.finding(
                    node, RULE,
                    "stdlib random is unseeded global state",
                    hint=_RNG_HINT,
                )
        elif isinstance(node, ast.Call):
            dotted = imports.resolve_call(node)
            if dotted is None:
                continue
            if dotted == "random" or dotted.startswith("random."):
                yield module.finding(
                    node, RULE,
                    f"stdlib {dotted}() draws from unseeded global state",
                    hint=_RNG_HINT,
                )
            elif dotted in ("time.time", "time.time_ns"):
                yield module.finding(
                    node, RULE,
                    f"wall clock ({dotted}) in physics code breaks bitwise "
                    f"reproducibility",
                    hint="time the call from outside (the run kernel, repro/api/runs.py, does)",
                )
            elif dotted == "numpy.random.default_rng":
                if _unseeded_default_rng(node):
                    yield module.finding(
                        node, RULE,
                        "unseeded np.random.default_rng() varies run to run",
                        hint=_RNG_HINT,
                    )
            elif dotted.startswith("numpy.random."):
                attr = dotted.split(".")[-1]
                if attr not in _NP_RANDOM_OK:
                    yield module.finding(
                        node, RULE,
                        f"np.random.{attr}() uses NumPy's global random state",
                        hint=_RNG_HINT,
                    )
