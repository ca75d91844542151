"""Tests for the factored matrix ``LowRankMatrix`` (the exact cosine ``W``).

``W = F̂ F̂ᵀ D⁻¹ + (1/n) 1 1_zeroᵀ`` is held as one shared factor: the
unit rows ``F̂``, the column scale ``D⁻¹`` and the featureless mask.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.features import (
    LowRankMatrix,
    factored_cosine_transition_matrix,
    unit_feature_rows,
)
from repro.errors import ValidationError


def random_walk(rng, n=6, d=2, *, sparse=False):
    """A generic ``LowRankMatrix``: random factor, scale and mask."""
    unit = rng.standard_normal((n, d))
    featureless = np.zeros(n, dtype=bool)
    featureless[[1, n - 1]] = True
    unit[featureless] = 0.0
    col_scale = np.where(featureless, 0.0, rng.random(n) + 0.5)
    return LowRankMatrix(
        sp.csr_matrix(unit) if sparse else unit, col_scale, featureless
    )


def reference_dense(low):
    """``F̂ F̂ᵀ D⁻¹ + (1/n) 1 1_zeroᵀ`` spelled out entry by entry."""
    unit = low.unit.toarray() if sp.issparse(low.unit) else low.unit
    n = unit.shape[0]
    dense = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            dense[i, j] = unit[i] @ unit[j] * low.col_scale[j]
            dense[i, j] += low.featureless[j] / n
    return dense


class TestLowRankMatrix:
    def test_matmul_matches_dense(self, rng):
        for sparse in (False, True):
            low = random_walk(rng, sparse=sparse)
            dense = low.dense()
            np.testing.assert_allclose(dense, reference_dense(low), atol=1e-14)
            x = rng.standard_normal((6, 3))
            np.testing.assert_allclose(low @ x, dense @ x, atol=1e-14)
            np.testing.assert_allclose(low @ x[:, 1], dense @ x[:, 1], atol=1e-14)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_vector_operand_is_column_zero_of_the_matrix_product(self, rng, sparse):
        features = rng.poisson(1.0, size=(40, 5)).astype(float)
        features[3] = 0.0
        low = factored_cosine_transition_matrix(
            sp.csr_matrix(features) if sparse else features
        )
        x = np.asfortranarray(rng.dirichlet(np.ones(40), size=3).T)
        got = low @ x[:, 0]
        assert got.shape == (40,)
        # BLAS may round a matrix-vector product differently from a
        # matrix-matrix one in the last bit, never by more.
        np.testing.assert_allclose(got, (low @ x)[:, 0], rtol=0, atol=1e-16)

    def test_shape_and_rank(self, rng):
        low = random_walk(rng, n=6, d=2)
        assert low.shape == (6, 6)
        assert low.rank == 3

    def test_mismatched_factors_raise(self, rng):
        low = random_walk(rng)
        with pytest.raises(ValidationError, match="2-D"):
            LowRankMatrix(low.unit[:, 0], low.col_scale, low.featureless)
        with pytest.raises(ValidationError, match="col_scale"):
            LowRankMatrix(low.unit, low.col_scale[:5], low.featureless)
        with pytest.raises(ValidationError, match="featureless"):
            LowRankMatrix(low.unit, low.col_scale, low.featureless[:, None])


class TestSharedFactor:
    def test_holds_the_unit_rows_once(self, rng):
        n, d = 300, 12
        features = rng.poisson(2.0, size=(n, d)).astype(float)
        low = factored_cosine_transition_matrix(features)
        np.testing.assert_array_equal(low.unit, unit_feature_rows(features)[0])
        arrays = [getattr(low, field.name) for field in dataclasses.fields(low)]
        assert [a.shape for a in arrays if a.ndim == 2] == [(n, d)]
        assert all(a.shape == (n,) for a in arrays if a.ndim != 2)
        # About n d floats: the factor plus two n-vectors, no transposed copy.
        assert sum(a.nbytes for a in arrays) <= 8 * (n * d + 2 * n)
