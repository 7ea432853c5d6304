"""Repo-level test tiering (markers registered in ``pytest.ini``).

Collection rules:

* a test marked ``slow`` stays out of the fast gate: ``pytest.ini``'s
  ``-m "not slow"`` deselects it unless the command line passes its own
  ``-m`` (``pytest -m slow tests/`` runs only those);
* every remaining test is marked ``tier1``.

A bare ``pytest`` collects ``tests/`` only (``pytest.ini`` ``testpaths``):
that is the tier-1 verify command, and it runs to its end in minutes.
Performance is measured by ``python -m bench``, not by a test.
"""

import pytest


def pytest_collection_modifyitems(config, items):
    for item in items:
        if not any(m.name == "slow" for m in item.iter_markers()):
            item.add_marker(pytest.mark.tier1)
