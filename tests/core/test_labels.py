"""Tests for the restart label vectors (Eq. 11 / Eq. 12)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.labels import (
    initial_label_vector,
    updated_label_matrix,
    updated_label_vector,
)
from repro.errors import ShapeError, ValidationError
from repro.utils.simplex import is_distribution


class TestInitialLabelVector:
    def test_uniform_over_labeled(self):
        mask = np.array([True, False, True, False])
        vec = initial_label_vector(mask)
        assert np.allclose(vec, [0.5, 0.0, 0.5, 0.0])

    def test_is_distribution(self):
        assert is_distribution(initial_label_vector(np.array([True, False])))

    def test_no_labeled_nodes_falls_back_to_uniform(self):
        vec = initial_label_vector(np.zeros(4, dtype=bool))
        assert np.allclose(vec, 0.25)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            initial_label_vector(np.array([], dtype=bool))

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            initial_label_vector(np.zeros((2, 2), dtype=bool))


class TestUpdatedLabelVector:
    def test_relative_mode_accepts_top_unlabeled(self):
        mask = np.array([True, False, False, False])
        x = np.array([0.8, 0.15, 0.04, 0.01])
        vec = updated_label_vector(mask, x, 0.5, mode="relative")
        # Cutoff = 0.5 * max over unlabeled (0.15) = 0.075: node 1 accepted.
        assert np.allclose(vec, [0.5, 0.5, 0.0, 0.0])

    def test_relative_mode_ignores_anchor_mass(self):
        # Even with anchors holding most of the mass, the best unlabeled
        # node sets the acceptance bar (the paper's restart term makes a
        # global-max reading accept nobody; see module docstring).
        mask = np.array([True, False, False])
        x = np.array([0.98, 0.015, 0.005])
        vec = updated_label_vector(mask, x, 0.9, mode="relative")
        assert vec[1] > 0 and vec[2] == 0.0

    def test_absolute_mode(self):
        mask = np.array([True, False, False])
        x = np.array([0.5, 0.4, 0.1])
        vec = updated_label_vector(mask, x, 0.3, mode="absolute")
        assert np.allclose(vec, [0.5, 0.5, 0.0])

    def test_labeled_nodes_always_kept(self):
        mask = np.array([True, False])
        x = np.array([0.0, 1.0])
        vec = updated_label_vector(mask, x, 0.99)
        assert vec[0] > 0

    def test_output_is_distribution(self):
        mask = np.array([True, False, False, False, True])
        x = np.array([0.3, 0.25, 0.2, 0.15, 0.1])
        assert is_distribution(updated_label_vector(mask, x, 0.5))

    def test_threshold_one_accepts_nothing_extra(self):
        mask = np.array([True, False, False])
        x = np.array([0.5, 0.3, 0.2])
        vec = updated_label_vector(mask, x, 1.0, mode="relative")
        # Cutoff equals the unlabeled max, strict inequality accepts none.
        assert np.allclose(vec, [1.0, 0.0, 0.0])

    def test_degenerate_empty_acceptance(self):
        mask = np.zeros(3, dtype=bool)
        x = np.zeros(3)
        vec = updated_label_vector(mask, x, 0.5, mode="absolute")
        assert np.allclose(vec, 1 / 3)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            updated_label_vector(np.array([True]), np.array([1.0]), 0.5, mode="fuzzy")

    def test_threshold_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            updated_label_vector(np.array([True]), np.array([1.0]), 1.5)

    def test_all_labeled_relative_mode(self):
        mask = np.ones(3, dtype=bool)
        x = np.array([0.5, 0.3, 0.2])
        vec = updated_label_vector(mask, x, 0.5, mode="relative")
        assert np.allclose(vec, 1 / 3)


class TestReturnAccepted:
    def test_counts_only_unlabeled_acceptances(self):
        mask = np.array([True, False, False, False])
        x = np.array([0.5, 0.4, 0.05, 0.05])
        vec, n_accepted = updated_label_vector(
            mask, x, 0.3, mode="absolute", return_accepted=True
        )
        assert n_accepted == 1  # node 1 only; the anchor is not an acceptance
        assert np.allclose(vec, [0.5, 0.5, 0.0, 0.0])

    def test_no_acceptances_is_zero(self):
        mask = np.array([True, False, False])
        x = np.array([0.9, 0.06, 0.04])
        _, n_accepted = updated_label_vector(
            mask, x, 1.0, mode="relative", return_accepted=True
        )
        assert n_accepted == 0

    def test_degenerate_fallback_records_zero(self):
        """The uniform fallback anchors nothing, so it must report 0.

        A naive ``n_l - n_anchors`` on the fallback support would report
        ``n`` acceptances for an empty class, corrupting the
        ``accepted_history`` diagnostics.
        """
        mask = np.zeros(5, dtype=bool)
        x = np.zeros(5)
        vec, n_accepted = updated_label_vector(
            mask, x, 0.9, mode="absolute", return_accepted=True
        )
        assert n_accepted == 0
        assert np.allclose(vec, 0.2)

    def test_default_still_returns_bare_vector(self):
        mask = np.array([True, False])
        x = np.array([0.7, 0.3])
        vec = updated_label_vector(mask, x, 0.5)
        assert isinstance(vec, np.ndarray)


#: Few distinct values, so ties and entries exactly at a relative or
#: absolute cutoff (``0.5 * 0.5 == 0.25``) come up often.
tie_prone = st.one_of(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
    st.floats(0.0, 1.0),
)


@st.composite
def label_problems(draw):
    """``(masks, X, threshold, mode)`` with degenerate columns mixed in."""
    n = draw(st.integers(1, 30))
    a = draw(st.integers(1, 4))
    masks = draw(arrays(dtype=bool, shape=(n, a)))
    X = draw(arrays(dtype=float, shape=(n, a), elements=tie_prone))
    for c in range(a):
        kind = draw(st.sampled_from(["drawn", "unlabeled", "all_labeled", "zero"]))
        if kind == "unlabeled":
            masks[:, c] = False
        elif kind == "all_labeled":
            masks[:, c] = True
        elif kind == "zero":
            masks[:, c] = False
            X[:, c] = 0.0
    order = draw(st.sampled_from("CF"))
    threshold = draw(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)))
    mode = draw(st.sampled_from(["relative", "absolute"]))
    return np.asarray(masks, order=order), np.asarray(X, order=order), threshold, mode


def assert_matches_column_loop(masks, X, threshold, mode):
    vectors, n_accepted = updated_label_matrix(masks, X, threshold, mode=mode)
    assert vectors.shape == X.shape
    assert n_accepted.shape == (X.shape[1],)
    for c in range(X.shape[1]):
        expected, expected_n = updated_label_vector(
            masks[:, c], X[:, c], threshold, mode=mode, return_accepted=True
        )
        assert np.ascontiguousarray(vectors[:, c]).tobytes() == expected.tobytes()
        assert int(n_accepted[c]) == expected_n


class TestUpdatedLabelMatrix:
    @given(label_problems())
    def test_property_equals_column_loop_bitwise(self, problem):
        assert_matches_column_loop(*problem)

    @pytest.mark.parametrize("mode", ["relative", "absolute"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_long_columns_equal_column_loop(self, mode, order):
        rng = np.random.default_rng(5)
        n = 20_000
        masks = rng.random((n, 3)) < 0.1
        masks[:, 1] = False
        X = rng.random((n, 3)) / n
        assert_matches_column_loop(
            np.asarray(masks, order=order), np.asarray(X, order=order), 0.6, mode
        )

    def test_single_class(self):
        masks = np.array([[True], [False], [False]])
        X = np.array([[0.5], [0.4], [0.1]])
        vectors, n_accepted = updated_label_matrix(masks, X, 0.5)
        assert np.array_equal(vectors[:, 0], [0.5, 0.5, 0.0])
        assert n_accepted.tolist() == [1]

    def test_unlabeled_class_falls_back_to_uniform(self):
        # No training node and nothing above the absolute cutoff.
        masks = np.array([[True, False], [False, False], [False, False]])
        X = np.array([[0.6, 0.2], [0.3, 0.3], [0.1, 0.5]])
        vectors, n_accepted = updated_label_matrix(masks, X, 0.9, mode="absolute")
        assert np.array_equal(vectors[:, 1], np.full(3, 1 / 3))
        assert n_accepted.tolist() == [0, 0]

    def test_every_node_labeled_has_no_candidates(self):
        masks = np.ones((3, 2), dtype=bool)
        masks[0, 1] = False
        X = np.array([[0.5, 0.2], [0.3, 0.3], [0.2, 0.5]])
        vectors, n_accepted = updated_label_matrix(masks, X, 0.5)
        assert np.array_equal(vectors[:, 0], np.full(3, 1 / 3))
        assert n_accepted.tolist() == [0, 1]

    def test_value_at_cutoff_is_not_accepted(self):
        # Relative cutoff 0.5 * 0.5 == 0.25: the strict test rejects node 2.
        masks = np.array([[True], [False], [False]])
        X = np.array([[0.25], [0.5], [0.25]])
        _, n_accepted = updated_label_matrix(masks, X, 0.5)
        assert n_accepted.tolist() == [1]

    def test_non_finite_rejected(self):
        X = np.array([[0.5], [np.nan]])
        with pytest.raises(ValidationError, match="non-finite"):
            updated_label_matrix(np.array([[True], [False]]), X, 0.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="mode"):
            updated_label_matrix(np.ones((2, 1), bool), np.ones((2, 1)), 0.5, mode="fuzzy")

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            updated_label_matrix(np.ones((3, 2), bool), np.ones((3, 1)), 0.5)
