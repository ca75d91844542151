"""The fork pool's failure contract (repro.forkpool).

A worker that stops (SIGSTOP) or dies (SIGKILL) in the middle of a
request must fail the run with a :class:`WorkerError` naming the task —
the grid cell, or the shard worker and round — within the deadline plus
a few seconds, and the pool must leave no child process behind.  Both
pools are checked: the section 6 grid and the sharded fit.
"""

import os
import re
import signal
import time

import pytest

import repro.forkpool as forkpool
from repro.core import TMark
from repro.experiments.harness import run_grid
from repro.forkpool import ForkPool, WorkerError, fork_available, in_worker
from repro.shard import run_chains_sharded
from tests.conftest import small_labeled_hin
from tests.shard.test_engine import model_operators

pytestmark = [
    pytest.mark.skipif(
        not fork_available(), reason="the fork pool requires the fork start method"
    ),
    pytest.mark.usefixtures("no_child_processes"),
]

DEADLINE = 1.0

#: How the worker fails, and what the error must say about it.
FAILURES = {
    signal.SIGSTOP: re.escape("no reply within 1 s (worker stalled)"),
    signal.SIGKILL: re.escape("the worker exited (code -9) before replying"),
}


@pytest.fixture(autouse=True)
def short_deadline(monkeypatch):
    monkeypatch.setattr(forkpool, "DEADLINE_SECONDS", DEADLINE)


@pytest.fixture(scope="module")
def hin():
    return small_labeled_hin(seed=7, n=30, q=3)


def raises_in_time(call, pattern: str) -> WorkerError:
    started = time.monotonic()
    with pytest.raises(WorkerError) as excinfo:
        call()
    assert time.monotonic() - started < DEADLINE + 5.0
    assert re.search(pattern, str(excinfo.value)), str(excinfo.value)
    return excinfo.value


def signalling_method(signum):
    class _Signalled:
        def fit_predict(self, hin, rng=None):
            if not in_worker():
                raise RuntimeError("expected to run in a pool worker")
            os.kill(os.getpid(), signum)
            time.sleep(60)

    return _Signalled


class _SignallingTensor:
    """Delegates to a real tensor; its row walk signals any forked child."""

    def __init__(self, inner, signum):
        self._inner = inner
        self._signum = signum
        self._parent_pid = os.getpid()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def row_walk(self, start, stop):
        if os.getpid() != self._parent_pid:
            os.kill(os.getpid(), self._signum)
            time.sleep(60)
        return self._inner.row_walk(start, stop)


@pytest.mark.parametrize("signum", list(FAILURES), ids=["SIGSTOP", "SIGKILL"])
class TestStoppedOrKilledWorker:
    def test_grid(self, hin, signum):
        methods = [
            ("TMark", lambda: TMark(alpha=0.8, gamma=0.4, max_iter=60)),
            ("Signalled", signalling_method(signum)),
        ]
        raises_in_time(
            lambda: run_grid(hin, methods, (0.3,), n_trials=1, seed=0, workers=2),
            "grid cell 'Signalled@0.3': " + FAILURES[signum],
        )

    def test_shard(self, hin, signum):
        model = TMark(alpha=0.8, gamma=0.0, max_iter=80)
        o_tensor, r_tensor, w_matrix = model_operators(hin, model)
        raises_in_time(
            lambda: run_chains_sharded(
                model, _SignallingTensor(o_tensor, signum), r_tensor, w_matrix,
                hin.label_matrix, shards=2, workers=2,
            ),
            # Both workers signal themselves; either may be reported.
            r"shard worker [01], round 1 \('ox'\): " + FAILURES[signum],
        )


class _Unpicklable(Exception):
    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def _raise_unpicklable(request):
    raise _Unpicklable(7, "no pickle round trip")


def test_unpicklable_exception_still_reports_the_remote_traceback():
    with ForkPool([_raise_unpicklable], cap_blas=False) as pool:
        pool.send(0, "go", "task 'x'")
        error = raises_in_time(
            pool.next_reply,
            re.escape("task 'x' failed: _Unpicklable: 7: no pickle round trip"),
        )
    assert error.__cause__ is None
    assert "_raise_unpicklable" in str(error)
