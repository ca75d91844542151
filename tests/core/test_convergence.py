"""Tests for ChainHistory."""

import numpy as np
import pytest

from repro.core.convergence import ChainHistory


class TestChainHistory:
    def test_initial_state(self):
        history = ChainHistory(tol=1e-6)
        assert history.n_iterations == 0
        assert history.final_residual == float("inf")
        assert not history.converged

    def test_record_computes_l1_residual(self):
        history = ChainHistory(tol=1e-6)
        rho = history.record(
            np.array([0.6, 0.4]), np.array([0.5, 0.5]),
            np.array([0.7, 0.3]), np.array([0.5, 0.5]),
        )
        assert rho == pytest.approx(0.2 + 0.4)
        assert history.residuals == [pytest.approx(0.6)]

    def test_converged_flag_follows_last_residual(self):
        history = ChainHistory(tol=0.5)
        history.record(np.array([1.0]), np.array([0.0]), np.array([1.0]), np.array([0.0]))
        assert not history.converged
        history.record(np.array([1.0]), np.array([1.0]), np.array([1.0]), np.array([1.0]))
        assert history.converged

    def test_n_iterations_counts_records(self):
        history = ChainHistory(tol=1e-6)
        for _ in range(4):
            history.record(np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
        assert history.n_iterations == 4
