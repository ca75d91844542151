"""Tests for the one top-k ``W`` builder.

Every top-k ``W`` (cosine from column panels, rbf and jaccard from
their full similarity matrix) is checked bit for bit against
:func:`keep_mask_reference`: the dense ``n x n`` keep-mask selection
the library once used, kept here as the specification.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.features import (
    SIMILARITY_METRICS,
    cosine_similarity_matrix,
    feature_transition_matrix,
    jaccard_similarity_matrix,
    normalise_similarity_columns,
    rbf_similarity_matrix,
    topk_cosine_transition_matrix,
)
from repro.errors import ValidationError

SIMILARITIES = {
    "cosine": cosine_similarity_matrix,
    "rbf": rbf_similarity_matrix,
    "jaccard": jaccard_similarity_matrix,
}


def keep_mask_reference(features, top_k: int, metric: str = "cosine"):
    """The top-k ``W`` from the dense similarity and a dense keep mask.

    Each column keeps its ``top_k`` largest similarities and the
    diagonal; the rest are zeroed, then the dense Eq. 9 normaliser runs.
    """
    sims = SIMILARITIES[metric](features)
    n = sims.shape[0]
    if top_k < n:
        keep = np.zeros_like(sims, dtype=bool)
        idx = np.argpartition(-sims, top_k - 1, axis=0)[:top_k, :]
        keep[idx, np.arange(n)[None, :].repeat(top_k, axis=0)] = True
        keep[np.diag_indices(n)] = True
        sims = np.where(keep, sims, 0.0)
    return sp.csr_matrix(normalise_similarity_columns(sims))


def assert_same_csr(candidate, reference):
    """Equal structure and equal bits, in canonical CSR form."""
    assert candidate.format == "csr"
    assert candidate.has_canonical_format
    assert np.array_equal(candidate.indptr, reference.indptr)
    assert np.array_equal(candidate.indices, reference.indices)
    assert candidate.data.tobytes() == reference.data.tobytes()


def feature_cases():
    """``(name, features)``: counts, signed, ties and featureless rows."""
    rng = np.random.default_rng(7)
    counts = rng.poisson(1.0, size=(40, 6)).astype(float)
    counts[[5, 17]] = 0.0
    signed = rng.normal(size=(25, 4))
    signed[3] = 0.0
    # 30 rows pointing one way: every similarity ties at 1.
    same_direction = np.outer(np.arange(1, 31), [1.0, 2.0, 0.5])
    binary = (rng.random((33, 8)) < 0.3).astype(float)
    return [
        ("counts", counts),
        ("signed", signed),
        ("same_direction", same_direction),
        ("binary", binary),
    ]


CASES = feature_cases()


@pytest.fixture
def count_features(rng):
    feats = rng.poisson(1.0, size=(40, 6)).astype(float)
    feats[5] = 0.0  # a featureless node
    return feats


class TestOneBuilder:
    @pytest.mark.parametrize("name, features", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("sparse_input", [False, True], ids=["dense", "csr"])
    def test_cosine_equals_keep_mask(self, name, features, sparse_input):
        n = features.shape[0]
        given = sp.csr_matrix(features) if sparse_input else features
        for top_k in (1, 2, 3, 5, n):
            reference = keep_mask_reference(given, top_k)
            assert_same_csr(feature_transition_matrix(given, top_k=top_k), reference)
            for chunk_size in (1, 7, 512, n):
                built = topk_cosine_transition_matrix(
                    given, top_k, chunk_size=chunk_size
                )
                assert_same_csr(built, reference)

    @pytest.mark.parametrize("metric", ["rbf", "jaccard"])
    @pytest.mark.parametrize("name, features", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("sparse_input", [False, True], ids=["dense", "csr"])
    def test_other_metrics_equal_keep_mask(self, metric, name, features, sparse_input):
        if metric == "jaccard" and features.min() < 0:
            pytest.skip("jaccard needs non-negative features")
        given = sp.csr_matrix(features) if sparse_input else features
        for top_k in (1, 2, 3, 5, features.shape[0]):
            built = feature_transition_matrix(given, top_k=top_k, metric=metric)
            assert_same_csr(built, keep_mask_reference(given, top_k, metric))

    def test_tied_directions_keep_every_diagonal(self):
        features = dict(CASES)["same_direction"]
        for chunk_size in (1, 7, 512, 30):
            w = topk_cosine_transition_matrix(features, 2, chunk_size=chunk_size)
            assert np.all(w.diagonal() > 0), chunk_size
            assert np.all(np.diff(w.tocsc().indptr) <= 3)

    def test_metrics_table(self):
        assert SIMILARITY_METRICS == ("cosine", "rbf", "jaccard")
        with pytest.raises(ValidationError, match="metric"):
            feature_transition_matrix(np.eye(3), top_k=2, metric="euclid")


class TestChunkedTopkW:
    @pytest.mark.parametrize("chunk_size", [1, 7, 16, 100])
    def test_matches_dense_path(self, count_features, chunk_size):
        chunked = topk_cosine_transition_matrix(
            count_features, 4, chunk_size=chunk_size
        )
        assert_same_csr(chunked, keep_mask_reference(count_features, 4))
        assert_same_csr(chunked, feature_transition_matrix(count_features, top_k=4))

    def test_columns_are_distributions(self, count_features):
        matrix = topk_cosine_transition_matrix(count_features, 3)
        cols = np.asarray(matrix.sum(axis=0)).ravel()
        assert np.allclose(cols, 1.0)
        assert matrix.min() >= 0

    def test_featureless_column_uniform(self, count_features):
        matrix = topk_cosine_transition_matrix(count_features, 3).toarray()
        n = count_features.shape[0]
        assert np.allclose(matrix[:, 5], 1.0 / n)

    def test_sparse_features_match(self, rng):
        # Continuous features: no exact similarity ties, so the top-k
        # selection is unambiguous across the dense and sparse paths.
        feats = rng.uniform(0.1, 1.0, size=(40, 6))
        dense = topk_cosine_transition_matrix(feats, 4)
        sparse = topk_cosine_transition_matrix(sp.csr_matrix(feats), 4)
        assert np.allclose(dense.toarray(), sparse.toarray())

    def test_k_larger_than_n(self, count_features):
        full = feature_transition_matrix(count_features)
        chunked = topk_cosine_transition_matrix(count_features, 1000)
        assert np.allclose(chunked.toarray(), np.asarray(full), atol=1e-12)

    def test_sparsity_bound(self, count_features):
        matrix = topk_cosine_transition_matrix(count_features, 3)
        per_column = np.diff(matrix.tocsc().indptr)
        n = count_features.shape[0]
        # Top-3 plus the diagonal; the featureless column is uniform.
        assert per_column[5] == n
        assert np.delete(per_column, 5).max() <= 4

    def test_bad_parameters_rejected(self, count_features):
        with pytest.raises(Exception):
            topk_cosine_transition_matrix(count_features, 0)
        with pytest.raises(ValidationError):
            topk_cosine_transition_matrix(count_features, 3, chunk_size=0)

    def test_1d_features_rejected(self):
        with pytest.raises(ValidationError):
            topk_cosine_transition_matrix(np.ones(5), 2)
