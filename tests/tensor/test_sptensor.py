"""Tests for the SparseTensor3 substrate."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ShapeError, ValidationError
from repro.tensor.sptensor import SparseTensor3, normalise_fibres


def make_simple():
    """A (3, 3, 2) tensor with three known entries."""
    return SparseTensor3([0, 1, 2], [1, 2, 0], [0, 0, 1], [1.0, 2.0, 3.0], shape=(3, 3, 2))


class TestConstruction:
    def test_shape_properties(self):
        tensor = make_simple()
        assert tensor.shape == (3, 3, 2)
        assert tensor.n_nodes == 3
        assert tensor.n_relations == 2
        assert tensor.nnz == 3

    def test_default_values_are_ones(self):
        tensor = SparseTensor3([0], [1], [0], shape=(2, 2, 1))
        assert np.allclose(tensor.values, [1.0])

    def test_duplicates_are_summed(self):
        tensor = SparseTensor3([0, 0], [1, 1], [0, 0], [1.0, 2.5], shape=(2, 2, 1))
        assert tensor.nnz == 1
        assert tensor.values[0] == pytest.approx(3.5)

    def test_zero_sums_are_dropped(self):
        tensor = SparseTensor3([0, 0], [1, 1], [0, 0], [0.0, 0.0], shape=(2, 2, 1))
        assert tensor.nnz == 0

    def test_empty_tensor(self):
        tensor = SparseTensor3([], [], [], shape=(4, 4, 2))
        assert tensor.nnz == 0
        assert tensor.to_dense().sum() == 0

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            SparseTensor3([], [], [], shape=(3, 4, 2))

    def test_rejects_wrong_rank(self):
        with pytest.raises(ShapeError):
            SparseTensor3([], [], [], shape=(3, 3))

    def test_rejects_out_of_range_coords(self):
        with pytest.raises(ValidationError):
            SparseTensor3([3], [0], [0], shape=(3, 3, 1))
        with pytest.raises(ValidationError):
            SparseTensor3([0], [0], [5], shape=(3, 3, 1))

    def test_rejects_negative_values(self):
        with pytest.raises(ValidationError):
            SparseTensor3([0], [1], [0], [-1.0], shape=(2, 2, 1))

    def test_rejects_nan_values(self):
        with pytest.raises(ValidationError):
            SparseTensor3([0], [1], [0], [float("nan")], shape=(2, 2, 1))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ShapeError):
            SparseTensor3([0, 1], [1], [0], shape=(2, 2, 1))

    def test_coords_are_readonly(self):
        tensor = make_simple()
        i, _, _ = tensor.coords
        with pytest.raises(ValueError):
            i[0] = 5

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(make_simple())

    def test_equality(self):
        assert make_simple() == make_simple()
        other = SparseTensor3([0], [1], [0], shape=(3, 3, 2))
        assert make_simple() != other

    def test_repr(self):
        assert "nnz=3" in repr(make_simple())


class TestAlternativeConstructors:
    def test_from_slices(self):
        s0 = np.array([[0, 1], [0, 0]])
        s1 = sp.csr_matrix(np.array([[0, 0], [2, 0]]))
        tensor = SparseTensor3.from_slices([s0, s1])
        dense = tensor.to_dense()
        assert dense[0, 1, 0] == 1
        assert dense[1, 0, 1] == 2

    def test_from_slices_rejects_mismatched(self):
        with pytest.raises(ShapeError):
            SparseTensor3.from_slices([np.zeros((2, 2)), np.zeros((3, 3))])

    def test_from_slices_rejects_empty(self):
        with pytest.raises(ShapeError):
            SparseTensor3.from_slices([])


class TestViews:
    def test_relation_slice_entries(self):
        tensor = make_simple()
        s0 = tensor.relation_slice(0).toarray()
        assert s0[0, 1] == 1.0 and s0[1, 2] == 2.0
        s1 = tensor.relation_slice(1).toarray()
        assert s1[2, 0] == 3.0

    def test_relation_slice_bounds(self):
        with pytest.raises(ValidationError):
            make_simple().relation_slice(2)

    def test_relation_slices_round_trip(self):
        tensor = make_simple()
        rebuilt = SparseTensor3.from_slices(tensor.relation_slices())
        assert rebuilt == tensor

    def test_aggregate_relations(self):
        agg = make_simple().aggregate_relations().toarray()
        assert agg[0, 1] == 1.0 and agg[1, 2] == 2.0 and agg[2, 0] == 3.0

    def test_aggregate_merges_across_relations(self):
        tensor = SparseTensor3([0, 0], [1, 1], [0, 1], [1.0, 2.0], shape=(2, 2, 2))
        assert tensor.aggregate_relations().toarray()[0, 1] == 3.0


class TestUnfold:
    def test_mode1_shape_and_layout(self):
        tensor = make_simple()
        unfolded = tensor.unfold(1)
        assert unfolded.shape == (3, 6)
        # Column k*n + j: entry (0,1,0) -> column 1; (2,0,1) -> column 3.
        assert unfolded[0, 1] == 1.0
        assert unfolded[2, 3 + 0] == 3.0

    def test_mode3_shape_and_layout(self):
        tensor = make_simple()
        unfolded = tensor.unfold(3)
        assert unfolded.shape == (2, 9)
        # Column j*n + i: entry (0,1,0) -> column 3; (2,0,1) -> column 2.
        assert unfolded[0, 3] == 1.0
        assert unfolded[1, 2] == 3.0

    def test_paper_example_sizes(self, tiny_tensor):
        # Section 3.2: A_(1) is 4 x 12, A_(3) is 3 x 16.
        assert tiny_tensor.unfold(1).shape == (4, 12)
        assert tiny_tensor.unfold(3).shape == (3, 16)

    def test_rejects_other_modes(self):
        with pytest.raises(ValidationError):
            make_simple().unfold(2)

    def test_mode1_matches_dense(self, random_tensor):
        dense = random_tensor.to_dense()
        n, _, m = random_tensor.shape
        unfolded = random_tensor.unfold(1).toarray()
        for k in range(m):
            assert np.allclose(unfolded[:, k * n:(k + 1) * n], dense[:, :, k])


class TestStructureQueries:
    def test_mode1_column_sums(self):
        sums = make_simple().mode1_column_sums()
        assert sums.shape == (6,)
        assert sums[1] == 1.0 and sums[2] == 2.0 and sums[3] == 3.0

    def test_normalise_fibres(self):
        tensor = make_simple()
        i, j, _ = tensor.coords
        pair_ids = j * 3 + i
        linked, normalised = normalise_fibres(pair_ids, tensor.values)
        assert normalised[pair_ids == 1 * 3 + 0] == 1.0  # (i=0, j=1)
        assert linked.tolist() == [2, 3, 7]  # unlinked pairs are absent

    def test_transpose_nodes(self):
        transposed = make_simple().transpose_nodes()
        assert transposed.to_dense()[1, 0, 0] == 1.0

    def test_transpose_involution(self, random_tensor):
        assert random_tensor.transpose_nodes().transpose_nodes() == random_tensor

