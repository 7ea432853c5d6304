"""The FFT engine: scipy.fft's bits through its own binding, parity with
the seed oracle, out=/in-place, counting and config wiring, and the
allocator and BLAS policies the first engine of a process sets (the
package-wide FFT isolation guard is ``fft-isolation`` in
``tests/test_invariants.py``)."""

import json
import os
import platform
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import SeedNumpyBackend

import repro.backend.base as backend_base
from repro.api import BackendConfig, ConfigError, Simulation, SimulationConfig
from repro.api.ensemble import apply_overrides
from repro.backend import Backend, BackendError, FFTTally
from repro.grid import PlaneWaveGrid, silicon_cubic_cell
from repro.trace import Tally, recording
from repro.utils.rng import default_rng


@pytest.fixture()
def backend() -> Backend:
    return Backend()


@pytest.fixture()
def batch():
    rng = default_rng(3)
    return rng.standard_normal((5, 4, 6, 8)) + 1j * rng.standard_normal((5, 4, 6, 8))


# ---------------- transform semantics, per backend ---------------------------


def test_roundtrip_identity(backend, batch):
    assert np.allclose(backend.backward(backend.forward(batch)), batch, atol=1e-12)


def test_forward_normalization(backend):
    """Constant field -> all weight in the zero frequency, amplitude 1."""
    a = np.ones((4, 4, 4), dtype=complex) * 3.5
    fa = backend.forward(a)
    assert fa[0, 0, 0] == pytest.approx(3.5)
    assert np.abs(fa).sum() == pytest.approx(3.5)


def test_bandbyband_matches_batched(backend, batch):
    """A per-band loop of transforms gives the batched call's bits."""
    for transform in (backend.forward, backend.backward):
        assert np.array_equal(np.stack([transform(band) for band in batch]), transform(batch))


def test_out_receives_result(backend, batch):
    """What pair densities, ``to_real`` / ``to_sphere``, Hartree and Kerker
    rely on: the result lands in ``out`` (``r is out``) whether ``out`` is
    fresh or a strided view and ``a`` complex or real, and an ``a`` that is
    not ``out`` is only ever read."""
    strided = np.empty((5, 9, 6, 8), dtype=complex)[:, :4]
    assert not strided.flags.c_contiguous
    for transform in (backend.forward, backend.backward):
        for a in (batch, batch.real.copy()):
            ref, keep = transform(a), a.copy()
            for out in (np.empty_like(batch), strided):
                assert transform(a, out=out) is out
                assert np.allclose(out, ref, atol=1e-14)
                assert np.array_equal(a, keep)


def test_inplace_transform(backend, batch):
    """``out is a`` destroys the input and leaves the transform in place."""
    ref = backend.forward(batch)
    work = batch.copy()
    r = backend.forward(work, out=work)
    assert r is work
    assert np.allclose(work, ref, atol=1e-14)
    # and back, in place again
    assert np.allclose(backend.backward(work, out=work), batch, atol=1e-12)


def test_bandbyband_out(backend, batch):
    """Each band view of a batch receives its own transform in place."""
    ref = backend.forward(batch)
    work = batch.copy()
    for band in work:
        assert backend.forward(band, out=band) is band
    assert np.allclose(work, ref, atol=1e-14)


def test_out_validation(backend, batch):
    with pytest.raises(ValueError, match="shape"):
        backend.forward(batch, out=np.empty((2, 4, 6, 8), dtype=complex))
    with pytest.raises(ValueError, match="complex"):
        backend.forward(batch, out=np.empty(batch.shape))
    with pytest.raises(ValueError, match=">= 3 dims"):
        backend.forward(np.zeros((4, 4), dtype=complex))
    # a SimComm reply is read-only: as ``out`` it is refused, not written through
    reply = np.empty(batch.shape, dtype=complex)
    reply.flags.writeable = False
    for transform in (backend.forward, backend.backward):
        with pytest.raises(ValueError, match="out buffer is not writeable"):
            transform(batch, out=reply)


@pytest.fixture(params=["direct", "fallback"])
def binding(request, monkeypatch):
    """The engine on the extension bound from its file, or, with that
    file forced to miss, on the module ``import scipy.fft`` loads."""
    if request.param == "fallback":
        monkeypatch.delitem(sys.modules, backend_base._POCKETFFT)
        monkeypatch.setattr(backend_base, "_pocketfft_path", lambda: None)
        c2c = backend_base._bind_pocketfft(backend_base._pocketfft_path())
        assert backend_base._POCKETFFT in sys.modules
        monkeypatch.setattr(backend_base, "_c2c", c2c)
    return request.param


@pytest.mark.parametrize("workers", [1, 2])
def test_transforms_are_scipy_fft_bits(binding, workers):
    """Every transform is ``array_equal`` to the ``scipy.fft.fftn`` /
    ``ifftn(norm="forward")`` call the engine made before it bound
    pocketfft itself: double-precision input without ``out`` as it is
    (a real one on pocketfft's real-input path), anything else as
    ``complex128``; unbatched and batched, no ``out``, in place, a
    distinct ``out`` and a strided view, on one thread or two."""
    rng = default_rng(7)
    for shape in ((5, 6, 7), (2, 3, 4, 6, 5)):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for a in (z, z.real.copy(), z.real.astype(np.float32)):
            for method, scipy_fn in (("forward", sfft.fftn), ("backward", sfft.ifftn)):
                transform = getattr(Backend(fft_workers=workers), method)

                def ref(x):
                    return scipy_fn(x, axes=(-3, -2, -1), norm="forward", workers=workers)

                as_complex = ref(a.astype(np.complex128))
                got = transform(a)
                assert got.dtype == np.complex128
                assert np.array_equal(got, as_complex if a.dtype == np.float32 else ref(a))
                keep = a.copy()
                fresh = np.empty(shape, dtype=complex)
                strided = np.empty(shape[:-1] + (2 * shape[-1],), dtype=complex)[..., ::2]
                for out in (fresh, strided):
                    assert transform(a, out=out) is out
                    assert np.array_equal(out, as_complex)
                assert np.array_equal(a, keep)
                work = a.astype(np.complex128)
                assert transform(work, out=work) is work
                assert np.array_equal(work, as_complex)


def _roundoff(ref: np.ndarray, multiple: float = 4.0) -> float:
    """``multiple * eps * log2(Ngrid) * max|ref|``: an FFT's forward error
    grows like ``eps * log2(N)`` and both sides of a comparison carry it
    (measured over 3000 random shapes and dtypes: 0.61 of the unit)."""
    ngrid = float(np.prod(ref.shape[-3:]))
    return multiple * np.finfo(float).eps * max(1.0, np.log2(ngrid)) * np.abs(ref).max()


def test_numpy_backend_matches_seed_convention(batch):
    """The engine keeps the seed convention (``fftn / Ngrid``, ``ifftn *
    Ngrid``), to round-off now that the scale is folded into the transform."""
    nb = Backend()
    n = float(np.prod(batch.shape[-3:]))
    for got, ref in (
        (nb.forward(batch), np.fft.fftn(batch, axes=(-3, -2, -1)) / n),
        (nb.backward(batch), np.fft.ifftn(batch, axes=(-3, -2, -1)) * n),
    ):
        assert np.abs(got - ref).max() <= _roundoff(ref)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_numpy_transforms_allocate_no_pass_buffers():
    """The mechanism, without a stopwatch: ``out is a`` allocates nothing
    batch-sized and a call without ``out`` makes exactly one array.  (The
    copying seed engine peaks at 2.0 x the batch's bytes on all four.)"""
    nb = Backend()
    rng = default_rng(5)
    w = rng.standard_normal((16, 12, 12, 12)) + 1j * rng.standard_normal((16, 12, 12, 12))
    for transform in (nb.forward, nb.backward):
        transform(w.copy())  # warm pocketfft's twiddle cache
        assert _traced_peak(lambda: transform(w, out=w)) < 0.05 * w.nbytes
        assert _traced_peak(lambda: transform(w)) < 1.05 * w.nbytes


_AXIS = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 13])


@settings(max_examples=60, deadline=None)
@given(
    batch_shape=st.lists(st.integers(1, 3), max_size=2),
    grid=st.tuples(_AXIS, _AXIS, _AXIS),
    dtype=st.sampled_from([np.float64, np.complex128, np.float32, np.complex64]),
    out_kind=st.sampled_from(["none", "inplace", "fresh", "strided"]),
    method=st.sampled_from(["forward", "backward"]),
    seed=st.integers(0, 2**16),
)
def test_numpy_backend_matches_seed_engine_to_roundoff(
    batch_shape, grid, dtype, out_kind, method, seed
):
    """One pocketfft call returns the per-axis seed engine's values to
    round-off: any batch and grid shape (odd and prime axes included), real
    or complex input in single or double precision, every way of passing
    ``out`` — and ``complex128`` whenever the engine makes the array."""
    rng = default_rng(seed)
    shape = tuple(batch_shape) + grid
    a = rng.standard_normal(shape)
    is_complex = np.issubdtype(dtype, np.complexfloating)
    if is_complex:
        a = a + 1j * rng.standard_normal(shape)
    a = a.astype(dtype)
    # single precision converts to double exactly, so the oracle sees the same numbers
    ref = getattr(SeedNumpyBackend(), method)(a.astype(np.result_type(dtype, np.float64)))
    if out_kind == "none":
        out = None
    elif out_kind == "inplace" and is_complex:
        out = a = a.astype(np.complex128)
    elif out_kind == "strided":
        out = np.empty(shape[:-1] + (2 * shape[-1],), dtype=complex)[..., ::2]
    else:
        out = np.empty(shape, dtype=complex)
    got = getattr(Backend(), method)(a, out=out)
    assert out is None or got is out
    assert got.dtype == ref.dtype == np.complex128
    assert np.abs(got - ref).max() <= _roundoff(ref)


@pytest.mark.parametrize("method", ["forward", "backward"])
def test_band_result_independent_of_threads_and_batch(method):
    """What the serial/distributed ``array_equal`` gates rest on now that the
    default engine threads: a band's transform is the same bits on 1 or 2
    ``fft_workers``, alone or inside a batch (ranks transform different
    slices of the same bands)."""
    rng = default_rng(11)
    a = rng.standard_normal((6, 9, 10, 12)) + 1j * rng.standard_normal((6, 9, 10, 12))
    one, two = (getattr(Backend(fft_workers=w), method) for w in (1, 2))
    batched = one(a)
    assert np.array_equal(two(a), batched)
    assert np.array_equal(two(a.copy(), out=np.empty_like(a)), batched)
    for b in range(a.shape[0]):
        assert np.array_equal(one(a[b]), batched[b])
    assert np.array_equal(one(a[2:5]), batched[2:5])


_STEP_CFG = {
    "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "hse"},
    "scf": {
        "nbands": 20, "density_tol": 1e-4, "exchange_tol": 1e-4,
        "max_scf": 10, "max_outer": 3,
    },
    "field": {"kind": "static_kick", "params": {"kick": 2e-3}},
    "propagation": {
        "propagator": "ptim_ace", "dt_as": 50.0, "n_steps": 2,
        "options": {"density_tol": 1e-6, "exchange_tol": 1e-6},
    },
}
_DENSE_R2 = {
    "propagation": {
        "propagator": "ptim",
        "options": {"density_tol": 1e-6, "fock_mode": "dense-diag"},
    },
    "parallel": {"ranks": 2, "pattern": "ring"},
}


def _swap_in_seed_engine(monkeypatch) -> None:
    """Run every engine on the per-axis seed bodies; counting is untouched."""
    monkeypatch.setattr(Backend, "_fftn", SeedNumpyBackend._fftn)
    monkeypatch.setattr(Backend, "_ifftn", SeedNumpyBackend._ifftn)


def test_trajectories_match_seed_engine(monkeypatch):
    """Two steps of PT-IM-ACE and of dense PT-IM on 2 ring ranks, from one
    ground state, on the default engine and on the seed oracle: observables
    and final state within 1e-12 (measured 6.4e-14: per-transform round-off
    through two steps' fixed points) and *equal* FFT tallies, so no
    iteration count moved.  A trajectory gate that needs no golden file."""
    base = Simulation(_STEP_CFG)
    base.ground_state()
    for sections in ({}, _DENSE_R2):
        new = base.derive(**sections).propagate()
        with monkeypatch.context() as patch:
            _swap_in_seed_engine(patch)
            seed = base.derive(**sections).propagate()
        obs_new, obs_seed = new.observables(), seed.observables()
        assert {"dipole", "energy"} <= set(obs_new)
        for key in obs_new:
            np.testing.assert_allclose(
                obs_new[key], obs_seed[key], rtol=0.0, atol=1e-12, err_msg=key
            )
        for part in ("phi", "sigma"):
            np.testing.assert_allclose(
                getattr(new.final_state, part), getattr(seed.final_state, part),
                rtol=0.0, atol=1e-12, err_msg=part,
            )
        assert new.fft.transforms > 0 and new.fft == seed.fft


# ---------------- counting -----------------------------------------------------


def test_counting_semantics(batch):
    cb = Backend()
    with recording() as rec:
        cb.forward(batch)
        fft = FFTTally.of(rec.snapshot())
        assert fft.transforms == 5 and fft.calls == 1
        for band in batch:
            cb.forward(band)
        fft = FFTTally.of(rec.snapshot())
        assert fft.transforms == 10 and fft.calls == 6
        assert fft.by_shape["4x6x8"] == 10
        snap = rec.snapshot()
        cb.backward(batch)
        assert FFTTally.of(rec.since(snap)).transforms == 5
    # the engine's window reads the recorder it was built under
    assert FFTTally.of(cb.window()).transforms == 0


def test_counters_merge_and_dict_roundtrip():
    cb = Backend()
    with recording() as first:
        cb.forward(np.zeros((3, 4, 4, 4), dtype=complex))
    with recording() as second:
        cb.forward(np.zeros((2, 4, 4, 4), dtype=complex))
        cb.forward(np.zeros((6, 6, 6), dtype=complex))
    merged = first.snapshot()
    merged.merge(second.snapshot())
    a = FFTTally.of(merged)
    assert a.transforms == 6 and a.calls == 3 and a.points == 5 * 64 + 216
    assert a.by_shape == {"4x4x4": 5, "6x6x6": 1}
    assert a._asdict() == {
        "transforms": 6, "calls": 3, "points": 536, "by_shape": {"4x4x4": 5, "6x6x6": 1},
    }
    back = FFTTally(**json.loads(json.dumps(a._asdict())))
    assert back == a


def test_tally_merge_and_dict_roundtrip_keep_spans_and_counts():
    """The one slice type: ``merge`` adds spans and counts, and the counts
    under a prefix round-trip through their JSON tree."""
    a = Tally({"x": (1, 2.0, 1.5)}, {"p.a.b": 2, "p.c": 0.5, "q": 1})
    a.merge(Tally({"x": (2, 1.0, 0.5), "y": (1, 1.0, 1.0)}, {"p.a.b": 3, "r": 4}))
    assert a.spans == {"x": (3, 3.0, 2.0), "y": (1, 1.0, 1.0)}
    assert a.counts == {"p.a.b": 5, "p.c": 0.5, "q": 1, "r": 4}
    assert a.to_dict("p") == {"a": {"b": 5}, "c": 0.5}
    assert Tally.from_dict("p", a.to_dict("p")) == Tally(counts={"p.a.b": 5, "p.c": 0.5})


# ---------------- the one engine name -------------------------------------------


def test_unknown_backend_name_gets_one_sentence_everywhere(tmp_path, capsys):
    """``scipy`` (an engine name until 1.11) is refused at parse time with
    one sentence, from the config section, ``Simulation`` and ``repro
    validate`` alike."""
    from repro.api.cli import main

    with pytest.raises(ConfigError, match="backend.name must be 'numpy'.*'scipy'") as direct:
        BackendConfig.from_dict({"name": "scipy", "fft_workers": 2})
    with pytest.raises(ConfigError) as facade:
        Simulation({"backend": {"name": "scipy"}})
    assert str(facade.value) == str(direct.value)
    path = tmp_path / "old.toml"
    path.write_text('[backend]\nname = "scipy"\nfft_workers = 2\n')
    assert main(["validate", str(path)]) == 2
    assert str(direct.value) in capsys.readouterr().err


def test_fft_workers_validated_and_honoured():
    with pytest.raises(BackendError, match="fft_workers"):
        Backend(fft_workers=0)
    assert Backend(fft_workers=2).fft_workers == 2


# ---------------- grid ---------------------------------------------------------


@pytest.fixture(scope="module")
def si_cell_local():
    return silicon_cubic_cell()


def test_grid_owns_fresh_counting_backend(si_cell_local):
    g1 = PlaneWaveGrid(si_cell_local, ecut=2.0)
    g2 = PlaneWaveGrid(si_cell_local, ecut=2.0)
    assert g1.backend is not g2.backend  # no shared global engine
    with recording() as rec:
        g1.backend.forward(np.zeros((4, 4, 4), dtype=complex))
    assert FFTTally.of(rec.snapshot()).transforms == 1


def test_grid_consume_matches_plain(si_cell_local):
    grid = PlaneWaveGrid(si_cell_local, ecut=2.0)
    rng = default_rng(1)
    x = rng.standard_normal((3, grid.ngrid)) + 1j * rng.standard_normal((3, grid.ngrid))
    ref = grid.r_to_g(x)
    got = grid.r_to_g(x.copy(), consume=True)
    assert np.allclose(got, ref, atol=1e-14)
    back = grid.g_to_r(ref.copy(), consume=True)
    assert np.allclose(back, grid.g_to_r(ref), atol=1e-13)


def test_scf_energy_parity_with_seed_engine(monkeypatch):
    """From-scratch SCF on the engine (2 threads) agrees with the seed
    oracle at physical tolerance.

    Iterative solvers stop at davidson_tol/density_tol, so converged
    *states* are engine-dependent at ~1e-7; the variational total
    energy must agree far tighter.  (Trajectory-level parity from a
    shared ground state is test_trajectories_match_seed_engine.)
    """
    base = {
        "system": {"cell": "silicon_cubic", "ecut": 2.0, "functional": "lda"},
        "scf": {"nbands": 20, "temperature_k": 8000.0, "density_tol": 1e-6},
    }
    new = Simulation({**base, "backend": {"fft_workers": 2}}).ground_state()
    _swap_in_seed_engine(monkeypatch)
    seed = Simulation(base).ground_state()
    assert new.converged and seed.converged
    assert new.total_energy == pytest.approx(seed.total_energy, abs=1e-7)


# ---------------- config wiring ----------------------------------------------


def test_backend_config_defaults_and_roundtrip():
    cfg = SimulationConfig.from_dict({})
    assert cfg.backend == BackendConfig()
    assert cfg.backend.name == "numpy" and cfg.backend.count_ffts
    assert SimulationConfig.from_dict(cfg.to_dict()) == cfg
    assert cfg.to_dict()["backend"] == {"name": "numpy", "fft_workers": 1, "count_ffts": True}


@pytest.mark.parametrize(
    "data,match",
    [
        ({"name": ""}, "backend.name"),
        ({"fft_workers": 0}, "backend.fft_workers"),
        ({"fft_workers": 1.5}, "backend.fft_workers"),
        ({"count_ffts": "yes"}, "backend.count_ffts"),
        ({"workers": 2}, "unknown key"),
        ({"fft_workers": True}, "backend.fft_workers"),
        ({"name": "scipy"}, "backend.name"),
    ],
)
def test_backend_config_rejects_bad_input(data, match):
    with pytest.raises(ConfigError, match=match):
        BackendConfig.from_dict(data)


def test_backend_sweep_axis():
    """`backend.*` keys work as ensemble sweep axes; `name` has one legal value."""
    base = SimulationConfig.from_dict({})
    cfg = apply_overrides(base, {"backend.name": "numpy", "backend.fft_workers": 4})
    assert cfg.backend.name == "numpy" and cfg.backend.fft_workers == 4
    with pytest.raises(ConfigError, match="backend.name"):
        apply_overrides(base, {"backend.name": "plugin"})


def test_simulation_builds_configured_backend():
    sim = Simulation({"backend": {"fft_workers": 2}})
    assert sim.backend.fft_workers == 2
    assert sim.backend.describe() == "numpy (pocketfft, workers=2) + counters"
    assert sim.grid.backend is sim.backend


def test_simulation_unknown_backend_raises():
    with pytest.raises(ConfigError, match="backend.name"):
        Simulation({"backend": {"name": "nope"}})


def test_simulation_uncounted_backend():
    """There is no uncounted engine: ``count_ffts = false`` is refused by
    name, and the default simulation's tally is always there."""
    with pytest.raises(ConfigError, match="backend.count_ffts must be true"):
        Simulation({"backend": {"count_ffts": False}})
    assert Simulation({}).fft_counters() == FFTTally()


def test_derive_shares_grid_only_on_same_backend():
    sim = Simulation({"system": {"ecut": 2.0}})
    _ = sim.grid
    same = sim.derive(propagation={"n_steps": 1})
    assert same._grid is sim._grid
    other = sim.derive(backend={"fft_workers": 2})
    assert other._grid is None  # grid owns the engine: must be rebuilt
    assert other._gs is sim._gs or sim._gs is None


def test_spectrum_is_uncounted_analysis_path():
    """absorption_spectrum uses the exempt 1-D helpers: correct numbers,
    and by construction no grid-backend counter traffic."""
    from repro.observables.spectrum import absorption_spectrum

    times = np.linspace(0.0, 10.0, 32)
    dipole = np.sin(1.3 * times)
    omega, strength = absorption_spectrum(times, dipole, kick=1e-3, pad_factor=2)
    dt = times[1] - times[0]
    signal = (dipole - dipole[0]) * np.exp(-0.003 * times)
    ref = np.fft.rfft(signal, n=64) * dt
    assert np.allclose(strength, (2 * omega / np.pi) * np.imag(ref / 1e-3))


# ---------------- allocator policy -----------------------------------------------

WARM_FOCK_FAULTS = textwrap.dedent(
    """\
    import resource
    from repro.grid import PlaneWaveGrid, silicon_cubic_cell
    from repro.parallel import FUGAKU_ARM, DistributedFockExchange, SimComm
    from repro.utils.rng import default_rng
    from repro.xc.kernels import erfc_screened_kernel

    grid = PlaneWaveGrid(silicon_cubic_cell(), ecut=3.0)
    assert grid.shape == (12, 12, 12), grid.shape
    rng = default_rng(0)
    phi = grid.random_orbitals(24, rng)
    w = rng.random(24)
    dist = DistributedFockExchange(grid, erfc_screened_kernel(grid), SimComm(2, FUGAKU_ARM))
    for _ in range(3):
        dist.apply_diag(phi, w)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        dist.apply_diag(phi, w)
    print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
    """
)


def _warm_fock_faults_per_call(**env_extra) -> float:
    """Minor page faults per warm 2-rank dense ``apply_diag`` (N = 24, 12^3
    grid), in a fresh interpreter whose malloc settings are its own."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))
    }
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = str(src)
    env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-c", WARM_FOCK_FAULTS],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout.split()[-1])


glibc_only = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt"
)


@glibc_only
def test_warm_dense_exchange_reuses_its_heap():
    """The first engine pins glibc's thresholds, so a warm exchange call's
    tile- and band-sized temporaries come back from the heap instead of
    fresh zeroed pages (about 1 400 faults per call under glibc's
    history-dependent default)."""
    assert _warm_fock_faults_per_call() < 50


@glibc_only
@pytest.mark.parametrize(
    "env",
    [
        {"MALLOC_MMAP_THRESHOLD_": "131072"},
        {"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"},
    ],
)
def test_launcher_malloc_settings_win(env):
    """An environment that configures glibc's malloc is left alone: with
    a 128 KiB mmap threshold every pair-density batch is mapped afresh."""
    assert _warm_fock_faults_per_call(**env) > 1000


# ---------------- BLAS policy ------------------------------------------------------

BLAS_THREADS = textwrap.dedent(
    """\
    from repro.backend import Backend
    from repro.backend.base import _openblas

    lib = _openblas()
    if lib is None:
        print("none")
    else:
        before = lib.scipy_openblas_get_num_threads64_()
        Backend()
        print(before, lib.scipy_openblas_get_num_threads64_())
    """
)


@pytest.mark.parametrize(
    "env", [{}, {"OPENBLAS_NUM_THREADS": "2"}, {"OMP_NUM_THREADS": "2"}, {"MKL_NUM_THREADS": "2"}]
)
def test_first_engine_runs_blas_on_one_thread(env):
    """In a fresh interpreter, numpy's bundled OpenBLAS runs on one thread
    after the first engine; a launcher that names a thread count keeps
    it (OpenBLAS reads the first two variables itself)."""
    clean = {k: v for k, v in os.environ.items() if k not in backend_base._BLAS_THREAD_VARS}
    clean["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS],
        env={**clean, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.split() == ["none"]:
        pytest.skip("numpy is not linked to its bundled OpenBLAS")
    before, after = (int(n) for n in proc.stdout.split())
    if not env:
        assert after == 1
    else:
        assert after == before
        if "MKL_NUM_THREADS" not in env:
            affinity = getattr(os, "sched_getaffinity", None)
            assert before == min(2, len(affinity(0)) if affinity else os.cpu_count())
