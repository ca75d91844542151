"""Property tests for the exact factored cosine ``W``.

For non-negative features Eq. 9 factors exactly as
``W = F̂ F̂ᵀ D⁻¹`` plus a uniform term for featureless columns
(:func:`repro.core.features.factored_cosine_transition_matrix`), applied
through the one shared factor ``F̂``.  The
selector :func:`repro.core.features.feature_walk_matrix` must pick it
only when it is exact and cheaper, and hand back the dense Eq. 9
reference otherwise (its top-k CSR as a row walk).
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro import make_dblp
from repro.core.features import (
    LowRankMatrix,
    factored_cosine_transition_matrix,
    feature_transition_matrix,
    feature_walk_form,
    feature_walk_matrix,
    walk_matrix_form,
)
from repro.core.tmark import TMark, build_operators
from repro.obs import ListRecorder
from repro.tensor.transition import RowWalk


@st.composite
def nonnegative_features(draw):
    """Bag-of-words style counts with some all-zero (featureless) rows."""
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 12))
    density = draw(st.floats(0.05, 1.0))
    rng = np.random.default_rng(seed)
    counts = rng.poisson(2.0, size=(n, d)) * (rng.random((n, d)) < density)
    counts = counts.astype(float)
    n_empty = draw(st.integers(0, n - 1))
    counts[rng.choice(n, size=n_empty, replace=False)] = 0.0
    sparse = draw(st.booleans())
    q = draw(st.integers(1, 5))
    operand = rng.dirichlet(np.ones(n), size=q).T
    return (sp.csr_matrix(counts) if sparse else counts), operand


class TestFactoredMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(nonnegative_features())
    def test_walk_matches_dense_eq9(self, bundle):
        features, operand = bundle
        low = factored_cosine_transition_matrix(features)
        reference = feature_transition_matrix(features)
        assert isinstance(low, LowRankMatrix)
        assert low.shape == reference.shape
        np.testing.assert_allclose(
            low @ operand, reference @ operand, rtol=0, atol=1e-12
        )
        column = operand[:, 0]
        got = low @ column
        assert got.shape == column.shape
        np.testing.assert_allclose(got, reference @ column, rtol=0, atol=1e-12)
        np.testing.assert_allclose(low.dense(), reference, rtol=0, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(nonnegative_features())
    def test_walk_preserves_mass(self, bundle):
        features, operand = bundle
        low = factored_cosine_transition_matrix(features)
        np.testing.assert_allclose(
            (low @ operand).sum(axis=0), operand.sum(axis=0), rtol=0, atol=1e-12
        )

    def test_featureless_columns_are_uniform(self):
        features = np.array([[1.0, 0.0], [0.0, 0.0], [2.0, 1.0], [0.0, 3.0]])
        dense = factored_cosine_transition_matrix(features).dense()
        np.testing.assert_array_equal(dense[:, 1], np.full(4, 0.25))

    def test_sparse_features_keep_sparse_factors(self):
        features = sp.random(50, 8, density=0.2, random_state=3, format="csr")
        low = factored_cosine_transition_matrix(features)
        assert sp.issparse(low.unit) and low.unit.shape == (50, 8)
        assert low.col_scale.shape == low.featureless.shape == (50,)
        assert low.rank == 9


class TestSelector:
    @staticmethod
    def _counts(n=30, d=4, seed=0):
        return np.random.default_rng(seed).poisson(2.0, size=(n, d)).astype(float)

    def test_picks_factored_when_exact_and_cheaper(self):
        features = self._counts()
        sparse = sp.csr_matrix(features)
        for feats in (features, sparse):
            assert feature_walk_form(feats) == "factored"
            got = feature_walk_matrix(feats)
            assert isinstance(got, LowRankMatrix)
            assert walk_matrix_form(got) == ("factored", 5)

    @pytest.mark.parametrize(
        "case",
        ["signed", "rbf", "jaccard", "top_k", "rank_too_large", "sparse_too_dense"],
    )
    def test_falls_back_to_the_reference(self, case):
        features = self._counts()
        kwargs = {}
        if case == "signed":
            features[3, 1] = -0.5
        elif case in ("rbf", "jaccard"):
            kwargs["metric"] = case
        elif case == "top_k":
            kwargs["top_k"] = 3
        elif case == "rank_too_large":
            # 2 (d + 1) >= n: the dense product is no more expensive.
            features = self._counts(n=10, d=4)
        else:
            # 2 nnz(F) >= n^2 for sparse features.
            features = sp.csr_matrix(self._counts(n=6, d=40))
        got = feature_walk_matrix(features, **kwargs)
        reference = feature_transition_matrix(features, **kwargs)
        form = "sparse" if case == "top_k" else "dense"
        assert feature_walk_form(features, **kwargs) == form
        assert walk_matrix_form(got) == (form, features.shape[0])
        assert not isinstance(got, LowRankMatrix)
        if case == "top_k":
            assert isinstance(got, RowWalk)
            whole = got.row_stack(0, got.shape[0])
            np.testing.assert_array_equal(whole.toarray(), reference.toarray())
        else:
            assert isinstance(got, np.ndarray)
            np.testing.assert_array_equal(got, reference)

    def test_boundary_of_the_cost_rule(self):
        # d = 4: factored from n = 11 on (2 * 5 < 11), dense at n = 10.
        assert feature_walk_form(self._counts(n=11)) == "factored"
        assert feature_walk_form(self._counts(n=10)) == "dense"


class TestGoldenGraphRunsFactored:
    def test_golden_dblp_fit_uses_the_factored_walk(self):
        # tests/integration/test_golden_regression.py pins this graph's
        # fit; it must exercise the factored form, not the dense one.
        hin = make_dblp(seed=0)
        assert hin.features.shape == (400, 120)
        recorder = ListRecorder()
        operators = build_operators(hin, recorder=recorder)
        assert isinstance(operators.w_matrix, LowRankMatrix)
        assert operators.w_matrix.rank == 121
        (event,) = recorder.events_of("operator_build")
        assert (event["w_form"], event["w_rank"]) == ("factored", 121)

    def test_traced_fit_equals_untraced(self):
        hin = make_dblp(seed=0)
        mask = np.zeros(hin.n_nodes, dtype=bool)
        mask[::4] = True
        operators = build_operators(hin)
        traced = TMark(alpha=0.8, gamma=0.6).fit(
            hin.masked(mask), operators=operators, recorder=ListRecorder()
        )
        untraced = TMark(alpha=0.8, gamma=0.6).fit(
            hin.masked(mask), operators=operators
        )
        for attr in ("node_scores", "relation_scores"):
            assert (
                getattr(traced.result_, attr).tobytes()
                == getattr(untraced.result_, attr).tobytes()
            )
