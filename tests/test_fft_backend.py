"""The counted FFT engine: correctness and instrumentation."""

import numpy as np
import pytest

from repro.backend import Backend, FFTTally
from repro.trace import recording
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
    with recording() as rec:
        engine.forward(a)
        assert FFTTally.of(rec.snapshot()).transforms == 5
        assert FFTTally.of(rec.snapshot()).calls == 1
        for band in a:
            engine.forward(band)
    fft = FFTTally.of(rec.snapshot())
    assert fft.transforms == 10
    assert fft.calls == 6  # 1 batched + 5 singles
    assert fft.points == 10 * 4 ** 3


def test_counter_by_shape(engine):
    a = np.zeros((2, 4, 4, 4), dtype=complex)
    b = np.zeros((6, 6, 6), dtype=complex)
    with recording() as rec:
        engine.forward(a)
        engine.forward(b)
    assert FFTTally.of(rec.snapshot()).by_shape == {"4x4x4": 2, "6x6x6": 1}


def test_counter_snapshot_since(engine):
    a = np.zeros((3, 4, 4, 4), dtype=complex)
    with recording() as rec:
        engine.forward(a)
        snap = rec.snapshot()
        engine.forward(a)
        delta = FFTTally.of(rec.since(snap))
    assert delta.transforms == 3
    assert delta.calls == 1
    assert delta.by_shape == {"4x4x4": 3}


def test_rejects_low_dim(engine):
    with pytest.raises(ValueError):
        engine.forward(np.zeros((4, 4), dtype=complex))


def test_bandbyband_matches_batched(engine):
    """A per-band loop of transforms gives the batched call's bits."""
    rng = default_rng(2)
    a = rng.standard_normal((3, 4, 6, 8)) + 1j * rng.standard_normal((3, 4, 6, 8))
    for transform in (engine.forward, engine.backward):
        assert np.array_equal(np.stack([transform(band) for band in a]), transform(a))
