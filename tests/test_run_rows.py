"""The run row's state machine, driven at random (hypothesis).

A run is one row of the store's ``jobs`` table, whichever way it was
made.  The machine below drives one config's row through every
transition a run can take — submit, claim, finish, a failed attempt,
cancel, a deadline running out, a supervisor's pass (also after a
claimer is killed outright), a stored run that records itself (and
finishes, fails, or is killed outright), a re-run, the resume lookup —
in random order.  Every event the queue applies is
checked against its row of the lifecycle table (``EVENTS``): the status
before and after and what became of the attempts; across the run every
row of the table is reached.  After every step it checks what must
always hold of every row:

- ``attempts`` is the number of its ``job_attempts`` rows;
- ``attempts`` never exceeds ``max_attempts``;
- only the last attempt can still be open;
- a cancel wins: a row cancelled while queued or running stays
  cancelled until someone asks for it again (a submit or a stored run);
- a ``running`` row names its worker, and a supervisor can tell whether
  that worker lives: a claimer, or a registered process;
- after a supervisor's pass, no attempt is open on a worker that is
  neither alive nor registered (nothing would ever close it);
- an ``ok`` row has its result file, and its columns describe that file.

The results are synthetic arrays (no physics), so a step is a few
SQLite transactions and at most one small ``.npz``.
"""

import contextlib
import inspect
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import settings, strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro  # noqa: E402
from oracles import recorded_times  # noqa: E402
from repro.api import SimulationConfig, SimulationResult  # noqa: E402
from repro.rt.propagator import PropagationRecord, TDState  # noqa: E402
from repro.serve.queue import EVENTS, JobQueue, own_worker_id  # noqa: E402
from repro.store import ResultStore, run_id_for  # noqa: E402

CONFIG = SimulationConfig.from_dict({"field": {"kind": "static_kick", "params": {"kick": 1e-3}}})
RUN_ID = run_id_for(CONFIG)
WORKERS = ("w0", "w1")

#: the events applied across a run of the machine
REACHED = set()


def _state(conn, run_id):
    """``(status, attempts, [(attempt, outcome, open), ...])`` of the row."""
    record = conn.execute("SELECT status, attempts FROM jobs WHERE run_id = ?", (run_id,)).fetchone()
    history = conn.execute(
        "SELECT attempt, outcome, finished IS NULL FROM job_attempts WHERE run_id = ? ORDER BY attempt",
        (run_id,),
    ).fetchall()
    return (*(record or (None, 0)), [tuple(a) for a in history])


def _is_a_row_of_the_table(event, before, after):
    """The transition ``before`` -> ``after`` is what ``event``'s row says."""
    (status, attempts, history), (now_status, now_attempts, now_history) = before, after
    assert status in event.source
    assert now_status == (event.to or status)
    if event.attempt == "clear":
        assert (now_attempts, now_history) == (0, [])
        return
    opened = event.attempt == "open"
    assert now_attempts == attempts + opened == len(now_history)
    was_open = bool(history) and history[-1][2]
    if was_open:  # the open attempt closes with one of the row's outcomes, or stays open
        _, outcome, still_open = now_history[len(history) - 1]
        assert still_open if not event.closes else outcome in event.closes and not still_open
    assert now_history[: len(history) - was_open] == history[: len(history) - was_open]
    if opened:
        assert now_history[-1][2]


def _result():
    """A whole run of ``CONFIG`` (the store takes nothing else)."""
    times = recorded_times(CONFIG)
    n_times = len(times)
    arrays = {
        "times": times,
        "dipole": np.zeros((n_times, 3)),
        "energy": np.zeros(n_times),
        "particle_number": np.ones(n_times),
        "field": np.zeros((n_times, 3)),
    }
    state = TDState(phi=np.ones((1, 2), dtype=complex), sigma=np.eye(1, dtype=complex), time=1.0)
    return SimulationResult(CONFIG, PropagationRecord.from_arrays(arrays), state)


class RunRows(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="repro-run-rows-")
        self.store = ResultStore(self.root)
        self.queue = self.store.queue
        #: the worker whose claim has not been reported yet
        self.holder = None
        #: cancelled before it finished, and not asked for since
        self.cancelled = False
        move = self.queue._move

        def observed(conn, run_id, event, now, **values):
            before = _state(conn, run_id)
            moved = move(conn, run_id, event, now, **values)
            if moved:
                _is_a_row_of_the_table(EVENTS[event], before, _state(conn, run_id))
                REACHED.add(event)
            else:
                assert _state(conn, run_id) == before
            return moved

        self.queue._move = observed

    def teardown(self):
        self.store.close()
        shutil.rmtree(self.root, ignore_errors=True)

    def _row(self):
        return self.queue.get(RUN_ID)

    # -- transitions ---------------------------------------------------------
    @rule(max_attempts=st.integers(1, 3), timed=st.booleans())
    def submit(self, max_attempts, timed):
        before = self._row()
        row, created = self.queue.submit(
            CONFIG, max_attempts=max_attempts, timeout=1e-6 if timed else 0.0
        )
        assert created == (before is None or before.status in ("error", "cancelled"))
        self.cancelled = self.cancelled and row.status == "cancelled"

    @rule(worker=st.sampled_from(WORKERS))
    def claim(self, worker):
        row = self.queue.claim(worker)
        if row is not None:
            assert (row.run_id, row.status, row.worker) == (RUN_ID, "running", worker)
            self.holder = worker

    @precondition(lambda self: self.holder)
    @rule()
    def finish(self):
        """The claim's holder stores its result (``ResultStore.add_run``)."""
        self.holder = None
        self.store.add_run(_result(), elapsed=0.5)

    @precondition(lambda self: self.holder)
    @rule()
    def fail(self):
        self.holder = None
        self.queue.fail_attempt(RUN_ID, "boom", backoff=0.0)

    @precondition(lambda self: self._row() is not None)
    @rule()
    def cancel(self):
        if self.queue.cancel(RUN_ID).status in ("queued", "running"):
            self.cancelled = True

    @rule(alive=st.lists(st.sampled_from(WORKERS), unique=True))
    def supervise(self, alive):
        """A supervisor's pass: fail a job past its deadline, then requeue
        the rows whose worker is gone — a claimer not in ``alive``, and any
        registered process (here, a stored run killed outright)."""
        time.sleep(2e-6)
        for job in self.queue.expired():
            self.holder = None
            self.queue.fail_attempt(job.run_id, "timed out", backoff=0.0, outcome="timeout")
        self.queue.recover(keep=alive)
        if self.holder not in alive:
            self.holder = None
        assert self.queue.workers() == []
        # and none is registered any more: an open attempt is on a live claimer
        open_on = [a["worker"] for a in self.queue.attempts(RUN_ID) if a["finished"] is None]
        assert set(open_on) <= set(alive), open_on

    @rule(worker=st.sampled_from(WORKERS), end=st.sampled_from(("fails", "killed", "cancelled")))
    def claimed_job_ends(self, worker, end):
        """A worker claims the row, then its job fails, or the worker is
        killed outright before a supervisor's pass — also by a cancel of
        its job, as the service kills it."""
        self.submit(max_attempts=2, timed=False)
        self.claim(worker)
        if end == "fails" and self.holder:
            self.fail()
            return
        if end == "cancelled":
            self.cancel()
        self.supervise([w for w in WORKERS if w != worker])

    @rule(how=st.sampled_from(("ok", "fails", "killed")))
    def stored_run(self, how):
        """``run_one`` with a store records its own run on the row; over an
        ``ok`` row (``repro run --rerun``) the row stays as it is until the
        new result lands.  A run killed outright leaves what ``begin`` did."""
        before = self._row()
        rerun = before is not None and before.ok
        if how == "killed":
            row = self.queue.begin(CONFIG)
        else:
            with contextlib.ExitStack() as stack:
                if how == "fails":
                    stack.enter_context(pytest.raises(FloatingPointError))
                row = stack.enter_context(self.queue.recording(CONFIG))
                if how == "fails":
                    raise FloatingPointError("diverged")
                self.store.add_run(_result(), elapsed=0.25)
        if rerun:
            assert row == before
            if how != "ok":
                assert self._row() == before
            return
        assert (row.status, row.worker) == ("running", own_worker_id())
        self.holder, self.cancelled = None, False  # a claim's holder lost the row to this run
        registered = [w["worker_id"] for w in self.queue.workers()]
        assert registered == ([own_worker_id()] if how == "killed" else [])

    @rule()
    def resume_lookup(self):
        """A sweep's plan: the ok row, or a result file finished into one."""
        done = self.store.find_completed(CONFIG)
        assert done is None or done.ok

    # -- invariants ----------------------------------------------------------
    @invariant()
    def attempts_are_the_history(self):
        row = self._row()
        if row is not None:
            assert row.attempts == len(self.queue.attempts(RUN_ID)), row
            assert row.attempts <= row.max_attempts, row

    @invariant()
    def only_the_last_attempt_is_open(self):
        history = self.queue.attempts(RUN_ID)
        assert all(a["finished"] is not None for a in history[:-1]), history

    @invariant()
    def cancel_wins(self):
        if self.cancelled:
            assert self._row().status == "cancelled"

    @invariant()
    def running_rows_name_a_worker_that_can_be_judged(self):
        row = self._row()
        if row is not None and row.status == "running":
            registered = [w["worker_id"] for w in self.queue.workers()]
            assert row.worker in WORKERS or row.worker in registered, row

    @invariant()
    def ok_rows_describe_their_file(self):
        row = self._row()
        if row is not None and row.ok:
            arrays = self.store.load_result(RUN_ID).observables()
            assert row.n_times == len(arrays["times"]) > 0, row
            assert row.finished is not None and row.progress == 1.0, row


class TestRunRows(RunRows.TestCase):
    settings = settings(max_examples=20, stateful_step_count=20, deadline=None, derandomize=True)

    def runTest(self):
        """The machine's runs reach every row of the lifecycle table."""
        REACHED.clear()
        super().runTest()
        assert REACHED == set(EVENTS), sorted(set(EVENTS) - REACHED)


def test_only_the_table_writes_a_status_or_an_attempt():
    """``git grep -n "SET status" src/repro`` finds one statement, ``_move``'s,
    and so do the statements that open and close an attempt."""
    src = Path(repro.__file__).parent
    hits = {
        needle: [
            f"{path.relative_to(src)}:{n}"
            for path in sorted(src.rglob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if needle in line
        ]
        for needle in ("SET status", "INSERT INTO job_attempts", "UPDATE job_attempts")
    }
    lines, start = inspect.getsourcelines(JobQueue._move)
    inside = {f"serve/queue.py:{n}" for n in range(start, start + len(lines))}
    assert all(len(found) == 1 and set(found) <= inside for found in hits.values()), hits
