"""The counted FFT engine: correctness and instrumentation."""

import numpy as np
import pytest

from repro.backend import Backend
from repro.utils.rng import default_rng


@pytest.fixture()
def engine():
    return Backend()


def test_roundtrip_identity(engine):
    rng = default_rng(0)
    a = rng.standard_normal((4, 6, 6, 8)) + 1j * rng.standard_normal((4, 6, 6, 8))
    assert np.allclose(engine.backward(engine.forward(a)), a, atol=1e-12)


def test_forward_normalization(engine):
    """Constant field -> all weight in the zero frequency, amplitude 1."""
    a = np.ones((4, 4, 4), dtype=complex) * 3.5
    fa = engine.forward(a)
    assert fa[0, 0, 0] == pytest.approx(3.5)
    assert np.abs(fa).sum() == pytest.approx(3.5)


def test_counter_batched_vs_calls(engine):
    rng = default_rng(1)
    a = rng.standard_normal((5, 4, 4, 4)).astype(complex)
    engine.forward(a)
    assert engine.counters.transforms == 5
    assert engine.counters.calls == 1
    for band in a:
        engine.forward(band)
    assert engine.counters.transforms == 10
    assert engine.counters.calls == 6  # 1 batched + 5 singles


def test_counter_by_shape(engine):
    a = np.zeros((2, 4, 4, 4), dtype=complex)
    b = np.zeros((6, 6, 6), dtype=complex)
    engine.forward(a)
    engine.forward(b)
    assert engine.counters.by_shape[(4, 4, 4)] == 2
    assert engine.counters.by_shape[(6, 6, 6)] == 1


def test_counter_snapshot_since(engine):
    a = np.zeros((3, 4, 4, 4), dtype=complex)
    engine.forward(a)
    snap = engine.counters.snapshot()
    engine.forward(a)
    delta = engine.counters.since(snap)
    assert delta.transforms == 3
    assert delta.calls == 1


def test_counter_reset(engine):
    engine.forward(np.zeros((4, 4, 4), dtype=complex))
    engine.counters.reset()
    assert engine.counters.transforms == 0
    assert engine.counters.by_shape == {}


def test_rejects_low_dim(engine):
    with pytest.raises(ValueError):
        engine.forward(np.zeros((4, 4), dtype=complex))


def test_bandbyband_matches_batched(engine):
    """A per-band loop of transforms gives the batched call's bits."""
    rng = default_rng(2)
    a = rng.standard_normal((3, 4, 6, 8)) + 1j * rng.standard_normal((3, 4, 6, 8))
    for transform in (engine.forward, engine.backward):
        assert np.array_equal(np.stack([transform(band) for band in a]), transform(a))
