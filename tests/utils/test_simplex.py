"""Tests for repro.utils.simplex, including hypothesis property tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ShapeError, ValidationError
from repro.utils.simplex import (
    is_distribution,
    normalize_distribution,
    project_columns_to_simplex,
    project_to_simplex,
    uniform_distribution,
)

nonneg_vectors = arrays(
    dtype=float,
    shape=st.integers(1, 30),
    elements=st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False),
)


class TestUniformDistribution:
    def test_values(self):
        assert np.allclose(uniform_distribution(4), 0.25)

    def test_sums_to_one(self):
        assert uniform_distribution(7).sum() == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            uniform_distribution(0)


class TestIsDistribution:
    def test_accepts_uniform(self):
        assert is_distribution(uniform_distribution(5))

    def test_rejects_negative(self):
        assert not is_distribution(np.array([0.5, 0.6, -0.1]))

    def test_rejects_wrong_sum(self):
        assert not is_distribution(np.array([0.5, 0.6]))

    def test_rejects_2d(self):
        assert not is_distribution(np.eye(2))

    def test_rejects_empty(self):
        assert not is_distribution(np.array([]))

    def test_tolerates_drift(self):
        assert is_distribution(np.array([0.5, 0.5 + 1e-12]))


class TestNormalizeDistribution:
    def test_basic(self):
        assert np.allclose(normalize_distribution([1, 3]), [0.25, 0.75])

    def test_zero_vector_becomes_uniform(self):
        assert np.allclose(normalize_distribution([0.0, 0.0]), [0.5, 0.5])

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            normalize_distribution([-1.0, 2.0])

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            normalize_distribution(np.eye(2))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            normalize_distribution(np.array([]))

    @given(nonneg_vectors)
    def test_property_output_is_distribution(self, vector):
        assert is_distribution(normalize_distribution(vector))


class TestProjectToSimplex:
    def test_repairs_tiny_negative(self):
        result = project_to_simplex(np.array([1.0, -1e-9]))
        assert is_distribution(result)
        assert result[1] == 0.0

    def test_rejects_large_negative(self):
        with pytest.raises(ValidationError):
            project_to_simplex(np.array([1.0, -0.5]))

    def test_identity_on_simplex(self):
        x = np.array([0.2, 0.3, 0.5])
        assert np.allclose(project_to_simplex(x), x)

    @given(nonneg_vectors)
    def test_property_idempotent(self, vector):
        once = project_to_simplex(vector)
        twice = project_to_simplex(once)
        assert np.allclose(once, twice)


#: Simplex iterates plus the drift the projection must repair: exact
#: zeros and tiny negatives in (-1e-6, 0].
drift_entries = st.one_of(
    st.floats(0.0, 100.0),
    st.floats(-1e-6, 0.0, exclude_min=True),
    st.just(0.0),
)


@st.composite
def column_blocks(draw):
    """``(n, a)`` blocks in C or F layout, some columns all zero."""
    n = draw(st.integers(1, 40))
    a = draw(st.integers(1, 5))
    block = draw(arrays(dtype=float, shape=(n, a), elements=drift_entries))
    zero_columns = draw(st.lists(st.booleans(), min_size=a, max_size=a))
    block[:, zero_columns] = 0.0
    return np.asarray(block, order=draw(st.sampled_from("CF")))


def assert_matches_column_loop(block):
    result = project_columns_to_simplex(block)
    assert result.shape == block.shape
    for j in range(block.shape[1]):
        expected = project_to_simplex(block[:, j])
        assert np.ascontiguousarray(result[:, j]).tobytes() == expected.tobytes()


class TestProjectColumnsToSimplex:
    @given(column_blocks())
    def test_property_equals_column_loop_bitwise(self, block):
        assert_matches_column_loop(block)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("a", [1, 4])
    def test_long_columns_equal_column_loop_bitwise(self, order, a):
        # n above numpy's 8192-element reduction buffer.
        rng = np.random.default_rng(3)
        block = rng.random((20_000, a)) ** 4
        block[::7] -= 5e-7
        block[:, 0] = np.where(rng.random(20_000) < 0.5, 0.0, block[:, 0])
        if a > 1:
            block[:, 1] = 0.0
        assert_matches_column_loop(np.asarray(block, order=order))

    def test_all_zero_column_becomes_uniform(self):
        block = np.zeros((4, 2))
        block[:, 1] = [1.0, 3.0, 0.0, 0.0]
        result = project_columns_to_simplex(block)
        assert np.array_equal(result[:, 0], np.full(4, 0.25))
        assert np.array_equal(result[:, 1], [0.25, 0.75, 0.0, 0.0])

    def test_rows_view_is_contiguous(self):
        result = project_columns_to_simplex(np.ones((5, 3)))
        assert result.T.flags.c_contiguous

    def test_input_not_modified(self):
        block = np.array([[1.0, -1e-9], [3.0, 2.0]])
        before = block.copy()
        project_columns_to_simplex(block)
        assert np.array_equal(block, before)

    @pytest.mark.parametrize("other", [1.0, np.nan])
    def test_rejects_large_negative(self, other):
        # A NaN elsewhere in the block must not mask the bug check.
        block = np.ones((3, 2))
        block[1, 1] = -1e-5
        block[0, 0] = other
        with pytest.raises(ValidationError, match="far outside the simplex"):
            project_columns_to_simplex(block)

    @pytest.mark.parametrize(
        "bad", [np.ones(3), np.ones((0, 2)), np.ones((2, 0)), np.ones((2, 2, 2))]
    )
    def test_rejects_bad_shapes(self, bad):
        with pytest.raises(ShapeError):
            project_columns_to_simplex(bad)
