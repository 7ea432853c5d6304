"""Golden-trajectory regression gate: no silent numerical drift.

Every registered propagator has a committed reference run in
``tests/golden/`` (generated by ``tests/make_golden.py``), and each
(system, scf) group has its converged ground state committed beside
them.  This module propagates each config *from the committed ground
state* and asserts the observable trajectories match to 1e-10.  A
failure means a change altered the numbers — either fix the regression
or, when the change is intentional, regenerate the goldens and justify
them in the same commit.

What the gate tests is therefore the propagators (and everything under
them: Hamiltonian, Fock/ACE, Hartree/XC, the FFT engine) from a pinned
state, on any host: the trajectories reproduce at round-off under
another BLAS thread count and on the per-axis seed FFT engine.  What it
does not test is the SCF: a re-converged ground state is host-dependent
at ``density_tol`` (1e-6 LDA / 1e-5 HSE here), four orders above this
tolerance.  A re-converged ground state is bounded by the solver
tolerances in ``tests/test_scf_gate.py``.
"""

import json

import numpy as np
import pytest

import make_golden
from repro.api import COMPONENTS, SimulationConfig

GOLDEN_TOL = 1e-10


def test_every_registered_propagator_has_a_golden_config():
    """New propagators must come with a golden reference run."""
    missing = set(COMPONENTS["propagator"]) - set(make_golden.CONFIGS)
    assert not missing, (
        f"propagator(s) {sorted(missing)} have no golden config; add them to "
        f"tests/make_golden.py CONFIGS and run: PYTHONPATH=src python tests/make_golden.py"
    )


@pytest.mark.parametrize("propagator", sorted(make_golden.CONFIGS))
def test_golden_file_exists_and_matches_config(propagator):
    path = make_golden.golden_path(propagator)
    assert path.exists(), (
        f"missing golden file {path}; generate it with: "
        f"PYTHONPATH=src python tests/make_golden.py"
    )
    with np.load(path, allow_pickle=False) as data:
        stored = json.loads(str(data["config_json"]))
    current = SimulationConfig.from_dict(make_golden.CONFIGS[propagator]).to_dict()
    assert stored == current, (
        f"golden file for {propagator!r} was generated from a different config "
        f"than tests/make_golden.py now specifies; regenerate the goldens"
    )


@pytest.mark.parametrize("propagator", sorted(make_golden.CONFIGS))
def test_trajectories_match_golden(propagator):
    """The 1e-10 gate over dipole/energy/sigma/particle-number series."""
    arrays = make_golden.run_config(make_golden.CONFIGS[propagator])
    with np.load(make_golden.golden_path(propagator), allow_pickle=False) as data:
        for key in make_golden.COMPARED_KEYS:
            golden = np.array(data[key])
            got = np.asarray(arrays[key])
            assert got.shape == golden.shape, f"{propagator}/{key}: shape changed"
            assert got.dtype == golden.dtype, f"{propagator}/{key}: dtype changed"
            np.testing.assert_allclose(
                got,
                golden,
                rtol=0.0,
                atol=GOLDEN_TOL,
                err_msg=(
                    f"{propagator}/{key} drifted beyond {GOLDEN_TOL}; if the "
                    f"change is intentional, regenerate tests/golden/ via "
                    f"tests/make_golden.py"
                ),
            )
