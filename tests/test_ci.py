"""CI runs what a local verify runs, and asserts nothing of its own.

Every check lives under ``tests/`` (or is ``python -m bench``'s own
self-test), so a change that breaks one fails on the developer's machine
first.  The workflow file may therefore hold one job on its numpy/scipy
matrix whose ``run:`` steps are exactly the install and the three gates:
an inline grep, ``python -c`` or heredoc that crept back would be an
assertion no local command makes.  Read as text: CI installs no YAML
parser.
"""

import re
from pathlib import Path

CI = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "ci.yml"

#: the workflow's ``run:`` steps, in order
GATES = [
    'python -m pip install "numpy${{ matrix.numpy-version }}" "scipy${{ matrix.scipy-version }}" pytest hypothesis',
    # the literal tier-1 verify command of ROADMAP.md
    "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -x -q",
    "PYTHONPATH=src python -m pytest -q -m slow tests/",
    "python -m bench --selftest",
]


def test_ci_runs_only_the_local_gates():
    text = CI.read_text()
    # a block scalar (``run: |``) reads as "|" and fails here too
    assert re.findall(r"^\s*(?:-\s+)?run:\s*(.*?)\s*$", text, re.M) == GATES
    assert re.findall(r"^  (\S+):\s*$", text.split("\njobs:\n", 1)[1], re.M) == ["tier1"]
    assert re.findall(r'numpy-version: "(.*)"', text) == ["==2.0.*", "==2.4.*"]
    assert re.findall(r'scipy-version: "(.*)"', text) == ["==1.13.*", "==1.17.*"]
    assert len(text.splitlines()) <= 120
