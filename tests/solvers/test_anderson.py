"""Tests for Anderson acceleration on synthetic linear contractions."""

import numpy as np
import pytest

from repro.solvers import AndersonAccelerator
from repro.solvers.anderson import DEFAULT_WINDOW


def linear_contraction(seed=0, n=8, rate=0.9):
    """A linear fixed-point map ``h(x) = A x + b`` contracting at ``rate``.

    Returns ``(h, x_star)``; the iteration ``x <- h(x)`` converges to
    ``x_star`` geometrically at ``rate`` (the spectral radius of ``A``).
    """
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.linspace(0.1, rate, n)
    a = basis @ np.diag(eigs) @ basis.T
    x_star = rng.uniform(0.5, 1.5, size=n)
    b = x_star - a @ x_star
    return (lambda x: a @ x + b), x_star


class TestAndersonOnLinearMaps:
    def test_beats_plain_iteration(self):
        h, x_star = linear_contraction(rate=0.95)
        solver = AndersonAccelerator(tol=1e-12)
        x = np.zeros_like(x_star)
        for t in range(1, 100):
            g = h(x)
            proposal = solver.propose(x.copy(), g.copy(), t=t, residuals=[])
            x = g if proposal is None else proposal
            if float(np.abs(h(x) - x).sum()) < 1e-10:
                break
        # Plain iteration at rate 0.95 needs ~450 steps to reach 1e-10;
        # default-window Anderson gets there in a few dozen.
        assert t < 60
        np.testing.assert_allclose(x, x_star, atol=1e-8)

    def test_full_window_is_exact_on_linear_maps(self):
        # With the window spanning the space, Anderson is GMRES-like and
        # solves an n-dim linear fixed point in about n + 1 steps.
        h, x_star = linear_contraction(rate=0.95)
        solver = AndersonAccelerator(tol=1e-12, window=x_star.size)
        x = np.zeros_like(x_star)
        for t in range(1, 100):
            g = h(x)
            proposal = solver.propose(x.copy(), g.copy(), t=t, residuals=[])
            x = g if proposal is None else proposal
            if float(np.abs(h(x) - x).sum()) < 1e-10:
                break
        assert t <= x_star.size + 2
        np.testing.assert_allclose(x, x_star, atol=1e-8)

    def test_first_step_has_no_history(self):
        solver = AndersonAccelerator(tol=1e-12)
        out = solver.propose(np.zeros(3), np.ones(3), t=1, residuals=[])
        assert out is None
        assert len(solver._xs) == 1

    def test_exact_limit_stays_silent(self):
        solver = AndersonAccelerator(tol=1e-8)
        x = np.array([0.25, 0.75])
        solver.propose(np.array([0.3, 0.7]), x.copy(), t=1, residuals=[])
        # Plain step moved less than tol: the solver must not perturb it.
        out = solver.propose(x.copy(), x + 1e-12, t=2, residuals=[])
        assert out is None

    def test_window_trims_history(self):
        solver = AndersonAccelerator(tol=1e-12, window=3)
        for t in range(1, 10):
            solver.propose(np.full(2, float(t)), np.full(2, t + 0.5), t=t, residuals=[])
        assert len(solver._xs) == solver.window + 1
        assert len(solver._gs) == solver.window + 1

    def test_default_window(self):
        assert AndersonAccelerator(tol=1e-8).window == DEFAULT_WINDOW

    def test_bad_window_raises(self):
        with pytest.raises(ValueError, match="window"):
            AndersonAccelerator(tol=1e-8, window=0)

    def test_reset_clears_history(self):
        solver = AndersonAccelerator(tol=1e-12)
        solver.propose(np.zeros(2), np.ones(2), t=1, residuals=[])
        solver.reset()
        assert not solver._xs and not solver._gs

    def test_proposal_counter_increments(self):
        h, _ = linear_contraction()
        solver = AndersonAccelerator(tol=1e-12)
        x = np.zeros(8)
        proposals = []
        for t in range(1, 5):
            g = h(x)
            proposal = solver.propose(x.copy(), g.copy(), t=t, residuals=[])
            proposals.append(proposal)
            x = g if proposal is None else proposal
        # Silent on the first pair, proposing from the second on.
        assert proposals[0] is None
        assert all(p is not None for p in proposals[1:])
