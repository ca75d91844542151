"""Tests for the cosine feature-transition matrix W (Eq. 9)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.features import (
    cosine_panel,
    cosine_similarity_matrix,
    feature_transition_matrix,
    unit_feature_rows,
)


class TestCosineSimilarityMatrix:
    def test_identical_rows_have_similarity_one(self):
        feats = np.array([[1.0, 2.0], [2.0, 4.0]])
        sims = cosine_similarity_matrix(feats)
        assert sims[0, 1] == pytest.approx(1.0)

    def test_orthogonal_rows_have_similarity_zero(self):
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        sims = cosine_similarity_matrix(feats)
        assert sims[0, 1] == pytest.approx(0.0)

    def test_diagonal_is_one_for_nonzero_rows(self):
        feats = np.array([[3.0, 4.0], [1.0, 1.0]])
        assert np.allclose(np.diag(cosine_similarity_matrix(feats)), 1.0)

    def test_zero_rows_give_zero_similarity(self):
        feats = np.array([[0.0, 0.0], [1.0, 1.0]])
        sims = cosine_similarity_matrix(feats)
        assert sims[0, 0] == 0.0 and sims[0, 1] == 0.0

    def test_negative_similarity_clipped(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        sims = cosine_similarity_matrix(feats)
        assert sims[0, 1] == 0.0

    def test_clipping_optional(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
        sims = cosine_similarity_matrix(feats, clip_negative=False)
        assert sims[0, 1] == pytest.approx(-1.0)

    def test_sparse_input_matches_dense(self):
        rng = np.random.default_rng(0)
        feats = rng.poisson(1.0, size=(6, 4)).astype(float)
        dense = cosine_similarity_matrix(feats)
        sparse = cosine_similarity_matrix(sp.csr_matrix(feats))
        assert np.allclose(dense, sparse)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        feats = rng.uniform(0, 1, size=(5, 3))
        sims = cosine_similarity_matrix(feats)
        assert np.allclose(sims, sims.T)

    def test_paper_example_matrix(self, worked_example):
        # Section 4.3's C matrix for the four publications.
        expected = np.array(
            [
                [1, 0, 0, 1],
                [0, 1, 1, 0],
                [0, 1, 1, 0],
                [1, 0, 0, 1],
            ],
            dtype=float,
        )
        assert np.allclose(
            cosine_similarity_matrix(worked_example.features), expected
        )


class TestFeatureTransitionMatrix:
    def test_columns_are_distributions(self):
        rng = np.random.default_rng(2)
        feats = rng.uniform(0, 1, size=(7, 4))
        w = feature_transition_matrix(feats)
        assert np.allclose(w.sum(axis=0), 1.0)
        assert np.all(w >= 0)

    def test_paper_example_w(self, worked_example):
        # Section 4.3's normalised W.
        expected = np.array(
            [
                [0.5, 0, 0, 0.5],
                [0, 0.5, 0.5, 0],
                [0, 0.5, 0.5, 0],
                [0.5, 0, 0, 0.5],
            ]
        )
        assert np.allclose(
            feature_transition_matrix(worked_example.features), expected
        )

    def test_featureless_node_gets_uniform_column(self):
        feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        w = feature_transition_matrix(feats)
        assert np.allclose(w[:, 0], 1 / 3)

    def test_top_k_returns_sparse(self):
        rng = np.random.default_rng(3)
        feats = rng.uniform(0.1, 1, size=(10, 4))
        w = feature_transition_matrix(feats, top_k=3)
        assert sp.issparse(w)
        cols = np.asarray(w.sum(axis=0)).ravel()
        assert np.allclose(cols, 1.0)
        # At most top_k + diagonal entries per column.
        assert max(np.diff(w.tocsc().indptr)) <= 4

    def test_top_k_keeps_diagonal(self):
        rng = np.random.default_rng(4)
        feats = rng.uniform(0.1, 1, size=(8, 3))
        w = feature_transition_matrix(feats, top_k=1).toarray()
        assert np.all(np.diag(w) > 0)

    def test_top_k_larger_than_n_equals_dense(self):
        rng = np.random.default_rng(5)
        feats = rng.uniform(0.1, 1, size=(5, 3))
        dense = feature_transition_matrix(feats)
        sparse = feature_transition_matrix(feats, top_k=10)
        assert np.allclose(sparse.toarray(), dense)

    def test_top_k_rejects_nonpositive(self):
        with pytest.raises(Exception):
            feature_transition_matrix(np.eye(3), top_k=0)


class TestCosinePanel:
    """The one similarity kernel: every panel is the full matrix's columns."""

    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_panels_equal_the_full_matrix_columns(self, sparse):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(80, 37)) * (rng.random((80, 37)) < 0.4)
        feats[[4, 9]] = 0.0
        if sparse:
            feats = sp.csr_matrix(feats)
        unit, norms = unit_feature_rows(feats)
        featureless = norms == 0
        full = cosine_panel(unit, featureless, slice(None))
        assert full.tobytes() == cosine_similarity_matrix(feats).tobytes()
        assert full.min() == 0.0
        assert not full[featureless].any() and not full[:, featureless].any()
        for columns in (slice(0, 1), slice(5, 12), slice(0, 80), [9, 3, 41, 3, 79]):
            panel = cosine_panel(unit, featureless, columns)
            expected = np.ascontiguousarray(full[:, columns])
            assert panel.tobytes() == expected.tobytes(), columns
        if not sparse:
            # Streamed rows are written as the panel's transpose.
            assert full.tobytes() == np.ascontiguousarray(full.T).tobytes()

    def test_unclipped_panel_keeps_negative_similarities(self):
        feats = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]])
        unit, norms = unit_feature_rows(feats)
        panel = cosine_panel(unit, norms == 0, [1], clip_negative=False)
        assert panel.ravel().tolist() == [-1.0, 1.0, 0.0]
