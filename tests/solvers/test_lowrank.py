"""Tests for the randomized low-rank W factorization and its error bound."""

import math

import numpy as np
import pytest

from repro.core import TMark
from repro.core.tmark import build_operators
from repro.errors import ValidationError
from repro.hin.graph import HIN
from repro.solvers import (
    LowRankMatrix,
    compress_matrix,
    compress_operators,
    prediction_error_bound,
    randomized_svd,
)
from tests.conftest import small_labeled_hin


def low_rank_plus_noise(rng, n=40, rank=5, noise=1e-6):
    u = rng.standard_normal((n, rank))
    v = rng.standard_normal((rank, n))
    return u @ v + noise * rng.standard_normal((n, n))


class TestRandomizedSvd:
    def test_recovers_low_rank_matrix(self, rng):
        matrix = low_rank_plus_noise(rng)
        u, s, vt = randomized_svd(matrix, 5, seed=1)
        np.testing.assert_allclose((u * s) @ vt, matrix, atol=1e-3)

    def test_factor_shapes(self, rng):
        matrix = rng.standard_normal((12, 7))
        u, s, vt = randomized_svd(matrix, 3, seed=0)
        assert u.shape == (12, 3) and s.shape == (3,) and vt.shape == (3, 7)

    def test_deterministic_under_seed(self, rng):
        matrix = rng.standard_normal((10, 10))
        first = randomized_svd(matrix, 4, seed=7)
        second = randomized_svd(matrix, 4, seed=7)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_rank_clamped_to_dimensions(self, rng):
        matrix = rng.standard_normal((4, 3))
        u, s, vt = randomized_svd(matrix, 10, seed=0)
        assert u.shape[1] == 3

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValidationError, match="2-D"):
            randomized_svd(np.zeros(3), 2)
        with pytest.raises(ValidationError, match="rank"):
            randomized_svd(np.zeros((3, 3)), 0)


class TestLowRankMatrix:
    def test_matmul_matches_dense(self, rng):
        low = LowRankMatrix(rng.standard_normal((6, 2)), rng.standard_normal((2, 6)))
        x = rng.standard_normal((6, 3))
        np.testing.assert_allclose(low @ x, low.dense() @ x)

    def test_shape_and_rank(self, rng):
        low = LowRankMatrix(rng.standard_normal((6, 2)), rng.standard_normal((2, 4)))
        assert low.shape == (6, 4)
        assert low.rank == 2

    def test_mismatched_factors_raise(self, rng):
        with pytest.raises(ValidationError, match="chain"):
            LowRankMatrix(rng.standard_normal((6, 2)), rng.standard_normal((3, 6)))
        with pytest.raises(ValidationError, match="2-D"):
            LowRankMatrix(rng.standard_normal(6), rng.standard_normal((2, 6)))


class TestCompression:
    def test_residual_certifies_reconstruction(self, rng):
        matrix = low_rank_plus_noise(rng, noise=1e-3)
        low, residual = compress_matrix(matrix, 5, seed=2)
        true_residual = float(np.linalg.norm(matrix - low.dense(), ord=2))
        # The power-method estimate must not understate the truth badly.
        assert residual == pytest.approx(true_residual, rel=0.5)

    def test_exact_rank_gives_tiny_residual(self, rng):
        matrix = low_rank_plus_noise(rng, noise=0.0)
        _, residual = compress_matrix(matrix, 5, seed=2)
        assert residual < 1e-8

    def test_compressed_operators_keep_predictions(self):
        hin = small_labeled_hin(seed=9, n=30, q=3)
        model = TMark(alpha=0.7, gamma=0.4, max_iter=500)
        operators = build_operators(
            hin,
            similarity_top_k=model.similarity_top_k,
            similarity_metric=model.similarity_metric,
        )
        plain = TMark(alpha=0.7, gamma=0.4, max_iter=500).fit(
            hin, operators=operators
        )
        compressed, residual = compress_operators(operators, rank=10, seed=0)
        low = TMark(alpha=0.7, gamma=0.4, max_iter=500).fit(
            hin, operators=compressed
        )
        beta = model.gamma * (1.0 - model.alpha)
        bound = prediction_error_bound(
            residual, beta=beta, decay_rate=0.9, n_nodes=hin.n_nodes
        )
        plain_x = plain.result_.node_scores
        low_x = low.result_.node_scores
        drift = float(np.abs(plain_x - low_x).max())
        assert drift <= max(bound, 1e-12)
        np.testing.assert_array_equal(
            plain_x.argmax(axis=1), low_x.argmax(axis=1)
        )


class TestCompressFactoredW:
    @staticmethod
    def factored_operators(n=60, d=6):
        hin = small_labeled_hin(seed=5, n=n, q=3)
        counts = np.random.default_rng(1).poisson(1.5, size=(n, d)).astype(float)
        nonnegative = HIN(
            hin.tensor,
            hin.relation_names,
            counts,
            hin.label_matrix,
            hin.label_names,
            node_names=hin.node_names,
        )
        operators = build_operators(nonnegative)
        assert isinstance(operators.w_matrix, LowRankMatrix)
        assert operators.w_matrix.rank == d + 1
        return operators

    def test_low_enough_rank_is_returned_unchanged(self):
        operators = self.factored_operators()
        for rank in (7, 20):
            compressed, residual = compress_operators(operators, rank=rank)
            assert compressed.w_matrix is operators.w_matrix
            assert residual == 0.0
        low, residual = compress_matrix(operators.w_matrix, 7)
        assert low is operators.w_matrix and residual == 0.0

    def test_higher_rank_is_compressed_from_its_product(self):
        operators = self.factored_operators()
        dense = operators.w_matrix.dense()
        compressed, residual = compress_operators(operators, rank=3, seed=4)
        assert compressed.w_matrix.rank == 3
        _, dense_residual = compress_matrix(dense, 3, seed=4)
        assert residual == pytest.approx(dense_residual, rel=1e-6)
        true_residual = np.linalg.norm(dense - compressed.w_matrix.dense(), 2)
        assert residual == pytest.approx(true_residual, rel=0.5)


class TestPredictionErrorBound:
    def test_contractive_rate_gives_finite_bound(self):
        bound = prediction_error_bound(0.01, beta=0.2, decay_rate=0.5, n_nodes=100)
        assert bound == pytest.approx(0.2 * 10 * 0.01 / 0.5)

    def test_non_contractive_rate_is_vacuous(self):
        assert math.isinf(
            prediction_error_bound(0.01, beta=0.2, decay_rate=1.0, n_nodes=100)
        )
        assert math.isinf(
            prediction_error_bound(0.01, beta=0.2, decay_rate=float("nan"), n_nodes=4)
        )

    def test_zero_residual_is_zero_even_unbounded(self):
        assert prediction_error_bound(0.0, beta=0.2, decay_rate=1.5, n_nodes=4) == 0.0

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValidationError):
            prediction_error_bound(-0.1, beta=0.2, decay_rate=0.5, n_nodes=4)
        with pytest.raises(ValidationError):
            prediction_error_bound(0.1, beta=1.2, decay_rate=0.5, n_nodes=4)
        with pytest.raises(ValidationError):
            prediction_error_bound(0.1, beta=0.2, decay_rate=0.5, n_nodes=0)
