"""Repo-level test tiering (markers registered in ``pytest.ini``).

Collection rules:

* anything under ``benchmarks/`` is marked ``bench`` — the
  pytest-benchmark figure reproductions, minutes each;
* tests explicitly marked ``slow`` or ``bench`` stay out of the fast gate;
* every remaining test is marked ``tier1``.

A bare ``pytest`` collects ``tests/`` only (``pytest.ini`` ``testpaths``):
that is the tier-1 verify command, and it runs to its end in minutes.
``pytest -m tier1`` is the same minus ``slow``; the paper figures are
reproduced by path, ``pytest -m bench benchmarks/``.
"""

from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).parent / "benchmarks"


def pytest_collection_modifyitems(config, items):
    for item in items:
        if _BENCH_DIR in Path(item.fspath).parents:
            item.add_marker(pytest.mark.bench)
        if not any(m.name in ("slow", "bench") for m in item.iter_markers()):
            item.add_marker(pytest.mark.tier1)
