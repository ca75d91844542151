"""Tests for the factored matrix ``LowRankMatrix`` (the exact cosine ``W``)."""

import numpy as np
import pytest

from repro.core.features import LowRankMatrix
from repro.errors import ValidationError


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
