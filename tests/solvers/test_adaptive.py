"""Tests for health-driven solver selection (solver="auto")."""

import numpy as np

from repro.solvers import AdaptiveAccelerator
from repro.solvers.adaptive import PROBE_ITERATIONS, SLOW_RATE


def geometric(first, rate, n):
    return [first * rate**t for t in range(n)]


def feed(solver, t, residuals):
    """Offer one synthetic (x_prev, g_x) pair at iteration ``t``."""
    x = np.array([0.5 + 0.01 * t, 0.5 - 0.01 * t])
    return solver.propose(x, x + 0.005, t=t, residuals=residuals)


class TestSwitchPolicy:
    def test_dormant_during_probe_window(self):
        solver = AdaptiveAccelerator(tol=1e-10)
        slow = geometric(1.0, 0.99, 20)
        for t in range(1, PROBE_ITERATIONS):
            assert feed(solver, t, slow[:t]) is None
            assert solver.active_name == "plain"

    def test_fast_chain_never_switches(self):
        solver = AdaptiveAccelerator(tol=1e-10)
        fast = geometric(1.0, 0.5, 40)
        proposals = [feed(solver, t, fast[:t]) for t in range(1, 30)]
        assert solver.active_name == "plain"
        assert all(p is None for p in proposals)
        assert not solver._xs

    def test_slow_chain_switches_to_anderson(self):
        solver = AdaptiveAccelerator(tol=1e-10)
        slow = geometric(1.0, 0.95, 40)
        for t in range(1, 20):
            feed(solver, t, slow[:t])
        assert solver.active_name == "anderson"

    def test_switch_is_sticky(self):
        solver = AdaptiveAccelerator(tol=1e-10)
        slow = geometric(1.0, 0.95, 40)
        for t in range(1, 20):
            feed(solver, t, slow[:t])
        # Even a fast residual tail cannot switch the chain back.
        feed(solver, 20, geometric(1.0, 0.3, 20))
        assert solver.active_name == "anderson"

    def test_threshold_is_the_documented_constant(self):
        solver = AdaptiveAccelerator(tol=1e-10)
        just_below = geometric(1.0, SLOW_RATE - 0.05, 40)
        for t in range(1, 30):
            feed(solver, t, just_below[:t])
        assert solver.active_name == "plain"


class TestDelegation:
    """Once engaged, the solver is its Anderson base: history and restarts."""

    def _switched(self):
        solver = AdaptiveAccelerator(tol=1e-10)
        slow = geometric(1.0, 0.95, 40)
        proposals = [feed(solver, t, slow[:t]) for t in range(1, 20)]
        assert solver.active_name == "anderson"
        assert solver._xs and any(p is not None for p in proposals)
        return solver

    def test_rejected_propagates_to_inner(self):
        solver = self._switched()
        solver.rejected()
        assert not solver._xs and not solver._gs
        assert solver.active_name == "anderson"

    def test_map_changed_propagates_to_inner(self):
        solver = self._switched()
        solver.map_changed()
        assert not solver._xs and not solver._gs
        # A restarted history records one pair before proposing again.
        assert feed(solver, 20, geometric(1.0, 0.95, 20)) is None
        assert feed(solver, 21, geometric(1.0, 0.95, 21)) is not None

    def test_rejected_while_dormant_is_harmless(self):
        solver = AdaptiveAccelerator(tol=1e-10)
        solver.rejected()
        assert not solver._xs
        assert solver.active_name == "plain"

    def test_reset_clears_inner_history(self):
        solver = self._switched()
        solver.reset()
        assert not solver._xs and not solver._gs
