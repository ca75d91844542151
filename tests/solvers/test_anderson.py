"""Tests for Anderson acceleration on synthetic linear contractions."""

import numpy as np
import pytest

from repro.solvers import AndersonMixer
from repro.solvers.anderson import DEFAULT_WINDOW


def linear_contraction(seed=0, n=8, rate=0.9):
    """A mass-preserving linear map ``h(x) = A x + b`` contracting at ``rate``.

    ``A`` acts on the zero-sum subspace only (``1ᵀA = 0``) and
    ``1ᵀb = 1``, so ``h`` maps the unit-mass hyperplane into itself and
    the iterates stay on the simplex the safeguard checks.  Returns
    ``(h, x_star)``; the iteration ``x <- h(x)`` converges to ``x_star``
    geometrically at ``rate`` (the spectral radius of ``A``).
    """
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.linspace(0.1, rate, n)
    centre = np.eye(n) - 1.0 / n
    a = centre @ basis @ np.diag(eigs) @ basis.T @ centre
    x_star = rng.uniform(0.5, 1.5, size=n)
    x_star /= x_star.sum()
    b = x_star - a @ x_star
    return (lambda x: a @ x + b), x_star


def offer(solver, x, g):
    """Offer one pair to a one-row mixer; the accepted proposal or ``None``."""
    g_rows = np.array([g], dtype=float)
    accepted, _ = solver.step(np.array([x], dtype=float), g_rows)
    return g_rows[0] if accepted[0] else None


def iterate(solver, h, x_star, max_t=100):
    """Accelerated iteration from the uniform vector; the last ``t`` and ``x``."""
    x = np.full_like(x_star, 1.0 / x_star.size)
    for t in range(1, max_t):
        g = h(x)
        proposal = offer(solver, x, g)
        x = g if proposal is None else proposal
        if float(np.abs(h(x) - x).sum()) < 1e-10:
            break
    return t, x


class TestAndersonOnLinearMaps:
    def test_beats_plain_iteration(self):
        h, x_star = linear_contraction(rate=0.95)
        t, x = iterate(AndersonMixer(1, x_star.size, tol=1e-12), h, x_star)
        # Plain iteration at rate 0.95 needs ~450 steps to reach 1e-10;
        # default-window Anderson gets there in a few dozen.
        assert t < 60
        np.testing.assert_allclose(x, x_star, atol=1e-8)

    def test_full_window_is_exact_on_linear_maps(self):
        # With the window spanning the space, Anderson is GMRES-like and
        # solves an n-dim linear fixed point in about n + 1 steps.
        h, x_star = linear_contraction(rate=0.95)
        solver = AndersonMixer(1, x_star.size, tol=1e-12, window=x_star.size)
        t, x = iterate(solver, h, x_star)
        assert t <= x_star.size + 2
        np.testing.assert_allclose(x, x_star, atol=1e-8)

    def test_first_step_has_no_history(self):
        solver = AndersonMixer(1, 3, tol=1e-12)
        assert offer(solver, [0.2, 0.3, 0.5], [0.3, 0.3, 0.4]) is None
        assert solver.history_length[0] == 1

    def test_exact_limit_stays_silent(self):
        solver = AndersonMixer(1, 2, tol=1e-8)
        x = np.array([0.25, 0.75])
        offer(solver, [0.3, 0.7], x)
        # Plain step moved less than tol: the solver must not perturb it.
        assert offer(solver, x, x + 1e-12) is None

    def test_window_trims_history(self):
        # A tol no step reaches keeps the mixer silent, so nothing but
        # the window bounds the recorded history.
        solver = AndersonMixer(1, 2, tol=10.0, window=3)
        for t in range(1, 10):
            offer(solver, [0.5 - 0.01 * t, 0.5 + 0.01 * t], [0.4, 0.6])
        assert solver.history_length[0] == solver.window + 1

    def test_default_window(self):
        assert AndersonMixer(1, 2, tol=1e-8).window == DEFAULT_WINDOW

    def test_bad_window_raises(self):
        with pytest.raises(ValueError, match="window"):
            AndersonMixer(1, 2, tol=1e-8, window=0)

    def test_reset_clears_history(self):
        solver = AndersonMixer(1, 2, tol=1e-12)
        offer(solver, [0.5, 0.5], [0.4, 0.6])
        solver.restart([0])
        assert solver.history_length[0] == 0

    def test_proposal_counter_increments(self):
        h, x_star = linear_contraction()
        solver = AndersonMixer(1, x_star.size, tol=1e-12)
        x = np.full_like(x_star, 1.0 / x_star.size)
        proposals = []
        for t in range(1, 5):
            g = h(x)
            proposal = offer(solver, x, g)
            proposals.append(proposal)
            x = g if proposal is None else proposal
        # Silent on the first pair, proposing from the second on.
        assert proposals[0] is None
        assert all(p is not None for p in proposals[1:])
