"""Tests for the O / R transition tensors and their dangling handling."""

import tracemalloc

import numpy as np
import pytest

from repro.tensor.sptensor import SparseTensor3
from repro.tensor.transition import (
    NodeTransitionTensor,
    RelationTransitionTensor,
    build_transition_tensors,
    is_irreducible,
)
from repro.utils.simplex import is_distribution, uniform_distribution


class TestNodeTransitionTensor:
    def test_eq1_normalisation(self, tiny_tensor):
        dense = NodeTransitionTensor(tiny_tensor).to_dense()
        # Every (j, k) column sums to one, including dangling ones.
        sums = dense.sum(axis=0)
        assert np.allclose(sums, 1.0)

    def test_dangling_columns_are_uniform(self):
        tensor = SparseTensor3([0], [1], [0], shape=(3, 3, 1))
        dense = NodeTransitionTensor(tensor).to_dense()
        # Column (j=0, k=0) has no links -> uniform 1/3.
        assert np.allclose(dense[:, 0, 0], 1 / 3)

    def test_nondangling_column_values(self):
        tensor = SparseTensor3([0, 1], [2, 2], [0, 0], [1.0, 3.0], shape=(3, 3, 1))
        dense = NodeTransitionTensor(tensor).to_dense()
        assert np.allclose(dense[:, 2, 0], [0.25, 0.75, 0.0])

    def test_n_dangling_count(self, tiny_tensor):
        o_tensor = NodeTransitionTensor(tiny_tensor)
        # 4 nodes x 3 relations = 12 columns; the worked example has
        # 7 stored links over 6 distinct (j, k) columns.
        nonzero_cols = np.unique(
            tiny_tensor.coords[2] * 4 + tiny_tensor.coords[1]
        ).size
        assert o_tensor.n_dangling == 12 - nonzero_cols

    def test_propagate_preserves_simplex(self, tiny_tensor):
        o_tensor = NodeTransitionTensor(tiny_tensor)
        x = uniform_distribution(4)
        z = uniform_distribution(3)
        assert is_distribution(o_tensor.propagate(x, z))

    def test_propagate_matches_dense(self, tiny_tensor, rng):
        o_tensor = NodeTransitionTensor(tiny_tensor)
        dense = o_tensor.to_dense()
        for _ in range(5):
            x = rng.dirichlet(np.ones(4))
            z = rng.dirichlet(np.ones(3))
            expected = np.einsum("ijk,j,k->i", dense, x, z)
            assert np.allclose(o_tensor.propagate(x, z), expected)

    def test_propagate_validates_sizes(self, tiny_tensor):
        o_tensor = NodeTransitionTensor(tiny_tensor)
        with pytest.raises(Exception):
            o_tensor.propagate(np.ones(3) / 3, np.ones(3) / 3)

    def test_matricized_copy_is_independent(self, tiny_tensor):
        o_tensor = NodeTransitionTensor(tiny_tensor)
        mat = o_tensor.matricized()
        mat.data[:] = 0
        assert o_tensor.matricized().data.sum() > 0


class TestRelationTransitionTensor:
    def test_eq2_normalisation(self, tiny_tensor):
        dense = RelationTransitionTensor(tiny_tensor).to_dense()
        # Every (i, j) fibre sums to one over relations.
        assert np.allclose(dense.sum(axis=2), 1.0)

    def test_unlinked_pairs_are_uniform(self):
        tensor = SparseTensor3([0], [1], [0], shape=(3, 3, 2))
        dense = RelationTransitionTensor(tensor).to_dense()
        assert np.allclose(dense[2, 2, :], 0.5)

    def test_linked_pair_values(self):
        tensor = SparseTensor3([0, 0], [1, 1], [0, 1], [1.0, 3.0], shape=(2, 2, 2))
        dense = RelationTransitionTensor(tensor).to_dense()
        assert np.allclose(dense[0, 1, :], [0.25, 0.75])

    def test_n_linked_pairs(self, tiny_tensor):
        r_tensor = RelationTransitionTensor(tiny_tensor)
        i, j, _ = tiny_tensor.coords
        assert r_tensor.n_linked_pairs == np.unique(j * 4 + i).size

    def test_build_allocates_nothing_quadratic(self):
        # Eq. 2 only needs sums over the linked pairs; a dense n*n fibre-sum
        # array would pin 128 MB here, far over the n*n*8/4 budget.
        n, n_links = 4000, 300
        rng = np.random.default_rng(0)
        tensor = SparseTensor3(
            rng.integers(0, n, n_links),
            rng.integers(0, n, n_links),
            rng.integers(0, 3, n_links),
            rng.uniform(0.1, 2.0, n_links),
            shape=(n, n, 3),
        )
        tracemalloc.start()
        try:
            RelationTransitionTensor(tensor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4

    def test_propagate_preserves_simplex(self, tiny_tensor):
        r_tensor = RelationTransitionTensor(tiny_tensor)
        x = uniform_distribution(4)
        assert is_distribution(r_tensor.propagate(x))

    def test_propagate_matches_dense(self, tiny_tensor, rng):
        r_tensor = RelationTransitionTensor(tiny_tensor)
        dense = r_tensor.to_dense()
        for _ in range(5):
            x = rng.dirichlet(np.ones(4))
            y = rng.dirichlet(np.ones(4))
            expected = np.einsum("ijk,i,j->k", dense, x, y)
            assert np.allclose(r_tensor.propagate(x, y), expected)

    def test_propagate_default_y_is_x(self, tiny_tensor, rng):
        r_tensor = RelationTransitionTensor(tiny_tensor)
        x = rng.dirichlet(np.ones(4))
        assert np.allclose(r_tensor.propagate(x), r_tensor.propagate(x, x))


class TestBuildTransitionTensors:
    def test_returns_pair(self, tiny_tensor):
        o_tensor, r_tensor = build_transition_tensors(tiny_tensor)
        assert isinstance(o_tensor, NodeTransitionTensor)
        assert isinstance(r_tensor, RelationTransitionTensor)
        assert o_tensor.shape == r_tensor.shape == tiny_tensor.shape


class TestIsIrreducible:
    def test_cycle_is_irreducible(self):
        tensor = SparseTensor3([1, 2, 0], [0, 1, 2], [0, 0, 0], shape=(3, 3, 1))
        assert is_irreducible(tensor)

    def test_chain_is_reducible(self):
        tensor = SparseTensor3([1, 2], [0, 1], [0, 0], shape=(3, 3, 1))
        assert not is_irreducible(tensor)

    def test_empty_is_reducible(self):
        assert not is_irreducible(SparseTensor3([], [], [], shape=(3, 3, 1)))

    def test_single_node(self):
        assert is_irreducible(SparseTensor3([], [], [], shape=(1, 1, 1)))

    def test_irreducibility_uses_all_relations(self):
        # Each relation alone is a chain; together they form a cycle.
        tensor = SparseTensor3([1, 0], [0, 1], [0, 1], shape=(2, 2, 2))
        assert is_irreducible(tensor)
