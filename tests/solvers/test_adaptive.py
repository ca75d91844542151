"""Tests for health-driven solver selection (solver="auto")."""

import numpy as np

from repro.solvers import AndersonMixer
from repro.solvers.adaptive import PROBE_ITERATIONS, SLOW_RATE
from tests.solvers.test_anderson import linear_contraction


def geometric(first, rate, n):
    return [first * rate**t for t in range(n)]


def plain_iterates(n=8, steps=60):
    """The plain iterates of a slow mass-preserving linear contraction."""
    h, x_star = linear_contraction(n=n, rate=0.95)
    xs = [np.full(n, 1.0 / n)]
    for _ in range(steps):
        xs.append(h(xs[-1]))
    return np.array(xs)


ITERATES = plain_iterates()


def auto_mixer(rows=1):
    return AndersonMixer(rows, ITERATES.shape[1], tol=1e-10, auto=True)


def feed(solver, t, residuals):
    """Offer the plain pair ``(x_t, h(x_t))`` at iteration ``t``.

    Returns the accepted proposal, or ``None``.
    """
    g_rows = ITERATES[t + 1][None].copy()
    accepted, _ = solver.step(ITERATES[t][None], g_rows, t=t, residuals=[residuals])
    return g_rows[0] if accepted[0] else None


class TestSwitchPolicy:
    def test_dormant_during_probe_window(self):
        solver = auto_mixer()
        slow = geometric(1.0, 0.99, 20)
        for t in range(1, PROBE_ITERATIONS):
            assert feed(solver, t, slow[:t]) is None
            assert solver.solver_name(0) == "plain"

    def test_fast_chain_never_switches(self):
        solver = auto_mixer()
        fast = geometric(1.0, 0.5, 40)
        proposals = [feed(solver, t, fast[:t]) for t in range(1, 30)]
        assert solver.solver_name(0) == "plain"
        assert all(p is None for p in proposals)
        assert solver.history_length[0] == 0

    def test_slow_chain_switches_to_anderson(self):
        solver = auto_mixer()
        slow = geometric(1.0, 0.95, 40)
        for t in range(1, 20):
            feed(solver, t, slow[:t])
        assert solver.solver_name(0) == "anderson"

    def test_switch_is_sticky(self):
        solver = auto_mixer()
        slow = geometric(1.0, 0.95, 40)
        for t in range(1, 20):
            feed(solver, t, slow[:t])
        # Even a fast residual tail cannot switch the chain back.
        feed(solver, 20, geometric(1.0, 0.3, 20))
        assert solver.solver_name(0) == "anderson"

    def test_threshold_is_the_documented_constant(self):
        solver = auto_mixer()
        just_below = geometric(1.0, SLOW_RATE - 0.05, 40)
        for t in range(1, 30):
            feed(solver, t, just_below[:t])
        assert solver.solver_name(0) == "plain"


class TestDelegation:
    """Once engaged, a row is an Anderson row: history and restarts."""

    def _switched(self):
        solver = auto_mixer()
        slow = geometric(1.0, 0.95, 40)
        proposals = [feed(solver, t, slow[:t]) for t in range(1, 20)]
        assert solver.solver_name(0) == "anderson"
        assert solver.history_length[0] and any(p is not None for p in proposals)
        return solver

    def test_rejected_propagates_to_inner(self):
        solver = self._switched()
        solver.restart(np.array([True]))
        assert solver.history_length[0] == 0
        assert solver.solver_name(0) == "anderson"

    def test_map_changed_propagates_to_inner(self):
        solver = self._switched()
        solver.restart([0])
        assert solver.history_length[0] == 0
        # A restarted history records one pair before proposing again.
        assert feed(solver, 20, geometric(1.0, 0.95, 20)) is None
        assert feed(solver, 21, geometric(1.0, 0.95, 21)) is not None

    def test_rejected_while_dormant_is_harmless(self):
        solver = auto_mixer()
        solver.restart([0])
        assert solver.history_length[0] == 0
        assert solver.solver_name(0) == "plain"

    def test_reset_clears_inner_history(self):
        solver = self._switched()
        solver.restart(slice(None))
        assert solver.history_length[0] == 0

    def test_rows_switch_independently(self):
        solver = auto_mixer(rows=2)
        slow, fast = geometric(1.0, 0.95, 40), geometric(1.0, 0.5, 40)
        for t in range(1, 20):
            x = np.repeat(ITERATES[t][None], 2, axis=0)
            g_rows = np.repeat(ITERATES[t + 1][None], 2, axis=0)
            solver.step(x, g_rows, t=t, residuals=[fast[:t], slow[:t]])
        assert [solver.solver_name(r) for r in range(2)] == ["plain", "anderson"]
        # The dormant row recorded nothing.
        assert solver.history_length.tolist()[0] == 0
