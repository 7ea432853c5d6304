"""Fig. 9 — step-by-step optimization speedups (BL -> Diag -> ACE -> Ring
-> Async).

Two layers:

* *measured*: the real numerical kernels at laptop scale — the Alg. 2
  triple loop vs the diagonalized Fock operator (the Diag step), and the
  dense vs ACE application (the ACE step) — timed with pytest-benchmark;
* *modeled*: the calibrated perf model at the paper's 384-atom / 240
  (ARM) and 24 (GPU) node configuration, printed next to the paper's
  speedups.
"""

import numpy as np
import pytest

from repro.hamiltonian.ace import ACEOperator
from repro.hamiltonian.fock import FockExchangeOperator
from repro.occupation.sigma import diagonalize_sigma, hermitize, rotate_orbitals, unrotate_orbitals
from repro.perf.calibrate import FIG9_SPEEDUPS, FIG9_TOTAL_SPEEDUP
from repro.perf.experiments import fig9_step_by_step
from repro.utils.rng import default_rng
from repro.xc.kernels import erfc_screened_kernel
from repro.utils.testing import random_hermitian_sigma


def diag_exchange(fock, phi, sigma):
    """The Diag step whole: decompose sigma, rotate, apply Eq. (13) on the
    rotated block, rotate back — ``V_x[P] Phi`` of ``P = Phi sigma Phi*``."""
    d, q = diagonalize_sigma(hermitize(sigma))
    return unrotate_orbitals(fock.apply_diag(rotate_orbitals(phi, q), d), q)


@pytest.fixture(scope="module")
def fock_setup(bench_grid):
    rng = default_rng(0)
    n = 8
    phi = bench_grid.random_orbitals(n, rng)
    sigma = hermitize(random_hermitian_sigma(n, rng))
    fock = FockExchangeOperator(bench_grid, erfc_screened_kernel(bench_grid), batch_size=16)
    return bench_grid, fock, phi, sigma


def test_bench_fock_tripleloop_baseline(fock_setup, benchmark):
    grid, fock, phi, sigma = fock_setup
    benchmark(lambda: fock.apply_mixed_tripleloop(phi, sigma))


def test_bench_fock_diagonalized(fock_setup, benchmark):
    grid, fock, phi, sigma = fock_setup
    benchmark(lambda: diag_exchange(fock, phi, sigma))


def test_bench_ace_apply(fock_setup, benchmark):
    grid, fock, phi, sigma = fock_setup
    w = diag_exchange(fock, phi, sigma)
    ace = ACEOperator.from_dense_action(grid, phi, w)
    benchmark(lambda: ace.apply(phi))


def test_measured_diag_speedup_grows_like_n(fock_setup):
    """The measured triple-vs-diag ratio scales with the band count."""
    import time

    grid, fock, phi, sigma = fock_setup

    def timed(f):
        t0 = time.perf_counter()
        f()
        return time.perf_counter() - t0

    ratios = []
    for n in (4, 8):
        p, s = phi[:n], hermitize(sigma[:n, :n])
        t_triple = timed(lambda: fock.apply_mixed_tripleloop(p, s))
        t_diag = timed(lambda: diag_exchange(fock, p, s))
        ratios.append(t_triple / t_diag)
    print(f"\n# measured triple/diag time ratios at N=4, 8: {ratios}")
    assert ratios[1] > ratios[0]  # the win grows with N (paper Sec. VIII-A1)
    assert ratios[1] > 2.0


def test_fig9_model_table(benchmark):
    print("\n# Fig 9 (modeled, 384-atom Si)")
    header = f"{'machine':<12}{'stage':<8}{'step (s)':>12}{'incr. speedup':>16}{'paper':>8}"
    print(header)
    for machine in ("fugaku-arm", "a100-gpu"):
        r = fig9_step_by_step(machine)
        prev = None
        for stage, t in r["step_seconds"].items():
            inc = "" if prev is None else f"{prev / t:.2f}"
            paper = FIG9_SPEEDUPS[machine].get(stage, "")
            print(f"{machine:<12}{stage:<8}{t:>12.1f}{inc:>16}{paper!s:>8}")
            prev = t
        print(
            f"{machine:<12}{'TOTAL':<8}{'':>12}{r['total_speedup']:>16.1f}"
            f"{FIG9_TOTAL_SPEEDUP[machine]:>8}"
        )
    benchmark(lambda: fig9_step_by_step("fugaku-arm"))
