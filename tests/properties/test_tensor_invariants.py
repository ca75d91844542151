"""Hypothesis property tests on the tensor substrate."""

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.tensor.products import dense_mode12_product, dense_mode13_product
from repro.tensor.sptensor import SparseTensor3, normalise_fibres
from repro.tensor.transition import NodeTransitionTensor, RelationTransitionTensor
from tests.conftest import random_sparse_tensor


@st.composite
def tensors(draw):
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(2, 7))
    m = draw(st.integers(1, 4))
    density = draw(st.floats(0.02, 0.7))
    rng = np.random.default_rng(seed)
    return random_sparse_tensor(rng, n=n, m=m, density=density), rng


class TestSparseTensorInvariants:
    @settings(max_examples=30, deadline=None)
    @given(tensors())
    def test_dense_round_trip(self, bundle):
        tensor, _ = bundle
        dense = tensor.to_dense()
        i, j, k = np.nonzero(dense)
        assert SparseTensor3(i, j, k, dense[i, j, k], shape=dense.shape) == tensor

    @settings(max_examples=30, deadline=None)
    @given(tensors())
    def test_slices_round_trip(self, bundle):
        tensor, _ = bundle
        rebuilt = SparseTensor3.from_slices(
            tensor.relation_slices(), n=tensor.n_nodes
        )
        assert rebuilt == tensor

    @settings(max_examples=30, deadline=None)
    @given(tensors())
    def test_unfold_preserves_mass(self, bundle):
        tensor, _ = bundle
        total = tensor.values.sum()
        assert np.isclose(tensor.unfold(1).sum(), total)
        assert np.isclose(tensor.unfold(3).sum(), total)

    @settings(max_examples=30, deadline=None)
    @given(tensors())
    def test_aggregate_matches_slice_sum(self, bundle):
        tensor, _ = bundle
        agg = tensor.aggregate_relations().toarray()
        stacked = sum(s.toarray() for s in tensor.relation_slices())
        assert np.allclose(agg, stacked)


@st.composite
def multi_relation_tensors(draw):
    """Tensors whose linked ``(i, j)`` pairs repeat across several relations."""
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(2, 60))
    m = draw(st.integers(2, 6))
    n_pairs = draw(st.integers(1, min(n * n, 200)))
    rng = np.random.default_rng(seed)
    pairs = rng.choice(n * n, size=n_pairs, replace=False)
    per_pair = rng.integers(1, m + 1, size=n_pairs)
    pair_ids = np.repeat(pairs, per_pair)
    k = np.concatenate([rng.choice(m, size=c, replace=False) for c in per_pair])
    j, i = np.divmod(pair_ids, n)
    values = rng.uniform(0.1, 2.0, size=pair_ids.size)
    return SparseTensor3(i, j, k, values, shape=(n, n, m))


class TestFibreNormalisation:
    @settings(max_examples=40, deadline=None)
    @given(multi_relation_tensors())
    def test_matches_dense_bincount_bitwise(self, tensor):
        n = tensor.n_nodes
        i, j, _ = tensor.coords
        pair_ids = j * n + i
        dense_sums = np.bincount(pair_ids, weights=tensor.values, minlength=n * n)
        expected = tensor.values / dense_sums[pair_ids]
        expected_linked = np.flatnonzero(np.bincount(pair_ids, minlength=n * n))

        linked, normalised = normalise_fibres(pair_ids, tensor.values)
        assert normalised.tobytes() == expected.tobytes()
        assert np.array_equal(linked, expected_linked)

        r_tensor = RelationTransitionTensor(tensor)
        pairs = r_tensor.pair_rows(0, n).tocoo()
        assert np.array_equal(np.sort(pairs.col * n + pairs.row), expected_linked)
        assert r_tensor.n_linked_pairs == expected_linked.size


class TestTransitionInvariants:
    @settings(max_examples=30, deadline=None)
    @given(tensors())
    def test_o_columns_stochastic(self, bundle):
        tensor, _ = bundle
        dense = NodeTransitionTensor(tensor).to_dense()
        assert np.allclose(dense.sum(axis=0), 1.0)
        assert dense.min() >= 0

    @settings(max_examples=30, deadline=None)
    @given(tensors())
    def test_r_fibres_stochastic(self, bundle):
        tensor, _ = bundle
        dense = RelationTransitionTensor(tensor).to_dense()
        assert np.allclose(dense.sum(axis=2), 1.0)
        assert dense.min() >= 0

    @settings(max_examples=30, deadline=None)
    @given(tensors())
    def test_sparse_products_equal_dense_reference(self, bundle):
        tensor, rng = bundle
        n, _, m = tensor.shape
        o_tensor = NodeTransitionTensor(tensor)
        r_tensor = RelationTransitionTensor(tensor)
        x = rng.dirichlet(np.ones(n))
        y = rng.dirichlet(np.ones(n))
        z = rng.dirichlet(np.ones(m))
        assert np.allclose(
            o_tensor.propagate(x, z),
            dense_mode13_product(o_tensor.to_dense(), x, z),
        )
        assert np.allclose(
            r_tensor.propagate(x, y),
            dense_mode12_product(r_tensor.to_dense(), x, y),
        )

    @settings(max_examples=30, deadline=None)
    @given(tensors())
    def test_propagation_is_bilinear(self, bundle):
        tensor, rng = bundle
        n, _, m = tensor.shape
        o_tensor = NodeTransitionTensor(tensor)
        x1 = rng.dirichlet(np.ones(n))
        x2 = rng.dirichlet(np.ones(n))
        z = rng.dirichlet(np.ones(m))
        combined = o_tensor.propagate(0.3 * x1 + 0.7 * x2, z)
        split = 0.3 * o_tensor.propagate(x1, z) + 0.7 * o_tensor.propagate(x2, z)
        assert np.allclose(combined, split)


@st.composite
def sparse_relation_tensors(draw):
    """Tensors with some relations left empty and many dangling columns."""
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 4))
    live = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    n_entries = draw(st.integers(0, 3 * n))
    rng = np.random.default_rng(seed)
    k = rng.choice(np.flatnonzero(live), size=n_entries) if any(live) else []
    i = rng.integers(0, n, size=len(k))
    j = rng.integers(0, n, size=len(k))
    values = rng.uniform(0.1, 2.0, size=len(k))
    return SparseTensor3(i, j, k, values, shape=(n, n, m))


def reference_o_build(tensor):
    """Eq. 1 through the mode-1 unfolding: ``A_(1) @ diag(scale)``, cut per relation."""
    n, _, m = tensor.shape
    col_sums = tensor.mode1_column_sums()
    nondangling = col_sums > 0
    scale = np.ones_like(col_sums)
    scale[nondangling] = 1.0 / col_sums[nondangling]
    unfolded = (tensor.unfold(1).tocsc() @ sp.diags(scale)).tocsc()
    slices = [unfolded[:, k * n : (k + 1) * n].tocsr() for k in range(m)]
    return unfolded.tocsr(), slices, np.flatnonzero(nondangling)


def assert_same_csr(got, expected):
    assert got.shape == expected.shape
    for name in ("data", "indices", "indptr"):
        got_arr, expected_arr = getattr(got, name), getattr(expected, name)
        assert got_arr.dtype == expected_arr.dtype
        assert got_arr.tobytes() == expected_arr.tobytes()


class TestDirectOBuild:
    @settings(max_examples=60, deadline=None)
    @given(sparse_relation_tensors())
    def test_matches_unfolded_construction_bytewise(self, tensor):
        n, _, m = tensor.shape
        mat, slices, nondangling = reference_o_build(tensor)
        o_tensor = NodeTransitionTensor(tensor)
        for k in range(m):
            assert_same_csr(o_tensor.relation_slice(k), slices[k])
        assert np.array_equal(o_tensor._nondangling_cols, nondangling)
        assert o_tensor.dangling_share == (n * m - nondangling.size) / (n * m)
        assert_same_csr(o_tensor.matricized(), mat)


class TestHinRoundTripInvariants:
    """Random HINs survive persistence losslessly."""

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10**6))
    def test_save_load_round_trip(self, seed):
        import tempfile
        from pathlib import Path

        from repro.datasets.synthetic import RelationSpec, make_synthetic_hin
        from repro.hin.io import load_hin, save_hin

        hin = make_synthetic_hin(
            12,
            ["a", "b"],
            [RelationSpec(name="r0", n_links=10), RelationSpec(name="r1", n_links=5)],
            vocab_size=8,
            words_per_node=6,
            feature_noise=0.5,
            seed=seed,
        )
        with tempfile.TemporaryDirectory() as tmp:
            loaded = load_hin(save_hin(hin, Path(tmp) / "h.npz"))
        assert loaded.tensor == hin.tensor
        assert np.allclose(loaded.features_dense(), hin.features_dense())
        assert np.array_equal(loaded.label_matrix, hin.label_matrix)
        assert loaded.node_names == hin.node_names
