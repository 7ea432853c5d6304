"""The span recorder of ``repro.trace``: nesting, attribution, coverage.

A tiny hybrid run through the run kernel must be accounted for by its
named layers: the self seconds of every span add up to the root span
``api.run``, and no more than a tenth of it is left in the root's and
the step's own code.
"""

import sys
import threading

import pytest

from repro import trace
from repro.api import Simulation
from repro.api.runs import run_one
from repro.rt import TDState
from repro.trace import recording, span, traced

#: the small hybrid state ``test_rt_propagators.py`` runs its PT-IM-ACE
#: checks on: 8 bands of ``conftest.py``'s HSE ground state under a pulse
HYBRID = {
    "system": {"cell": "silicon_cubic", "ecut": 3.0, "functional": "hse"},
    "scf": {"temperature_k": 8000.0, "nbands": 24},
    "field": {
        "kind": "gaussian_pulse",
        "params": {"amplitude": 0.02, "center_fs": 0.05, "fwhm_fs": 0.08},
    },
    "propagation": {
        "propagator": "ptim_ace",
        "dt_as": 50.0,
        "n_steps": 2,
        "options": {"density_tol": 1e-7, "exchange_tol": 1e-7},
    },
}


def test_a_hybrid_run_is_covered_by_its_named_layers(hse_ground_state):
    _, gs = hse_ground_state
    state = TDState(gs.orbitals[:8].copy(), gs.sigma[:8, :8].copy(), 0.0)
    sim = Simulation(HYBRID, ground_state=gs, state=state)
    with recording() as rec:
        result, _ = run_one(sim)
    spans = rec.snapshot().spans
    root = spans["api.run"]

    assert root.calls == 1
    assert rec.top_s == root.total_s
    assert sum(s.self_s for s in spans.values()) == pytest.approx(root.total_s, rel=1e-9)
    covered = 1.0 - (root.self_s + spans["rt.step"].self_s) / root.total_s
    assert covered >= 0.9, sorted(spans.items(), key=lambda kv: -kv[1].self_s)
    assert spans["backend.fft"].calls == rec.counts["backend.fft.calls"]
    assert spans["rt.step"].calls == HYBRID["propagation"]["n_steps"]
    inner = sum(s.scf_iterations for s in result.record.stats)
    assert spans["rt.fixed_point_update"].calls == inner


def test_a_span_that_raises_is_counted_and_the_stack_unwinds():
    @traced("test.fails")
    def fails():
        raise ValueError("inside")

    with recording() as rec:
        with pytest.raises(ValueError):
            with span("test.outer"):
                fails()
        with span("test.after"):
            pass
    spans = rec.snapshot().spans
    assert spans["test.fails"].calls == spans["test.outer"].calls == 1
    outer = spans["test.outer"]
    assert outer.self_s == pytest.approx(outer.total_s - spans["test.fails"].total_s, abs=1e-12)
    # both blocks closed: the later one opened at the top, not inside them
    assert rec.top_s == pytest.approx(outer.total_s + spans["test.after"].total_s, abs=1e-12)


def test_since_attributes_one_window_and_recording_restores_the_recorder():
    @traced("test.call")
    def call():
        return 7

    with recording() as rec:
        call()
        rec.count("test.items", 3)
        mark = rec.snapshot()
        opened = trace.window()
        with recording() as inner:
            call()
            trace.recorder().count("test.items")
        assert call() == 7
        rec.count("test.items", 2)
        rec.count("test.other")
        window = rec.since(mark)
    assert inner.snapshot().spans["test.call"].calls == 1
    assert inner.snapshot().counts == {"test.items": 1}
    assert rec.snapshot().spans["test.call"].calls == 2
    assert list(window.spans) == ["test.call"] and window.spans["test.call"].calls == 1
    # a count unchanged since the mark is not in the window
    assert window.counts == {"test.items": 2, "test.other": 1}
    assert opened() == window


def test_each_thread_nests_its_own_spans():
    """The serve HTTP threads open spans (``serve.*.submit``) while others
    run: each thread keeps its own open spans, so concurrent spans never
    raise and no self time goes negative (the shared tallies take no
    lock, so a concurrent update may be lost)."""

    @traced("test.leaf")
    def leaf():
        pass

    @traced("test.branch")
    def branch():
        leaf()
        leaf()

    errors = []

    def work():
        try:
            for _ in range(2000):
                branch()
        except Exception as exc:  # a thread's error is asserted on below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with recording() as rec:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []
    spans = rec.snapshot().spans
    assert 0 < spans["test.branch"].calls <= 8000 and 0 < spans["test.leaf"].calls <= 16000
    assert all(s.self_s >= 0.0 for s in spans.values())
