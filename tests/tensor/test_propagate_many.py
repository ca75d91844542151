"""Property tests for the batched propagation kernels.

The batching contract is *bitwise*: column ``c`` of
``propagate_many(X, Z)`` must equal ``propagate(X[:, c], Z[:, c])``
elementwise — not just approximately — so the batched T-Mark fit can
reproduce the per-class loop exactly.  The kernels guarantee this by
delegating ``propagate`` to a one-column ``propagate_many`` and by
using per-column reductions whose accumulation order is independent of
how many columns ride along in the batch.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.errors import ShapeError
from repro.tensor.products import (
    dense_mode12_product_many,
    dense_mode13_product_many,
)
from repro.tensor.sptensor import SparseTensor3
from repro.tensor.transition import NodeTransitionTensor, RelationTransitionTensor
from tests.conftest import random_sparse_tensor


def dangling_heavy_tensor(rng, n=8, m=3):
    """A tensor where most source columns (j, k) are dangling."""
    linked_sources = max(1, n // 3)
    n_entries = 3 * n
    i = rng.integers(0, n, size=n_entries)
    j = rng.integers(0, linked_sources, size=n_entries)
    k = rng.integers(0, m, size=n_entries)
    values = rng.uniform(0.1, 2.0, size=n_entries)
    return SparseTensor3(i, j, k, values, shape=(n, n, m))


def random_stack(rng, rows, cols):
    """Column-stacked random distributions."""
    stack = rng.uniform(0.01, 1.0, size=(rows, cols))
    return stack / stack.sum(axis=0)


TENSOR_FACTORIES = {
    "generic": lambda rng: random_sparse_tensor(
        rng, n=int(rng.integers(3, 10)), m=int(rng.integers(1, 5))
    ),
    "dangling_heavy": lambda rng: dangling_heavy_tensor(
        rng, n=int(rng.integers(6, 12)), m=int(rng.integers(1, 4))
    ),
}


class TestNodeTransitionMany:
    @pytest.mark.parametrize("kind", sorted(TENSOR_FACTORIES))
    @pytest.mark.parametrize("seed", range(6))
    def test_columns_match_single_bitwise(self, kind, seed):
        rng = np.random.default_rng(seed)
        tensor = TENSOR_FACTORIES[kind](rng)
        o_tensor = NodeTransitionTensor(tensor)
        n, _, m = tensor.shape
        q = int(rng.integers(1, 6))
        X = random_stack(rng, n, q)
        Z = random_stack(rng, m, q)
        batched = o_tensor.propagate_many(X, Z)
        assert batched.shape == (n, q)
        for c in range(q):
            single = o_tensor.propagate(X[:, c].copy(), Z[:, c].copy())
            assert np.array_equal(batched[:, c], single)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        tensor = random_sparse_tensor(rng, n=6, m=3)
        o_tensor = NodeTransitionTensor(tensor)
        X = random_stack(rng, 6, 4)
        Z = random_stack(rng, 3, 4)
        expected = dense_mode13_product_many(o_tensor.to_dense(), X, Z)
        assert np.allclose(o_tensor.propagate_many(X, Z), expected)

    def test_columns_stay_on_simplex(self, rng):
        tensor = dangling_heavy_tensor(rng)
        o_tensor = NodeTransitionTensor(tensor)
        n, _, m = tensor.shape
        X = random_stack(rng, n, 5)
        Z = random_stack(rng, m, 5)
        result = o_tensor.propagate_many(X, Z)
        assert np.all(result >= 0)
        assert np.allclose(result.sum(axis=0), 1.0)

    def test_rejects_mismatched_shapes(self, tiny_tensor):
        o_tensor = NodeTransitionTensor(tiny_tensor)
        n, _, m = tiny_tensor.shape
        with pytest.raises(ShapeError):
            o_tensor.propagate_many(np.ones((n + 1, 2)), np.ones((m, 2)))
        with pytest.raises(ShapeError):
            o_tensor.propagate_many(np.ones((n, 2)), np.ones((m, 3)))


class TestRelationTransitionMany:
    @pytest.mark.parametrize("kind", sorted(TENSOR_FACTORIES))
    @pytest.mark.parametrize("seed", range(6))
    def test_columns_match_single_bitwise(self, kind, seed):
        rng = np.random.default_rng(seed)
        tensor = TENSOR_FACTORIES[kind](rng)
        r_tensor = RelationTransitionTensor(tensor)
        n, _, m = tensor.shape
        q = int(rng.integers(1, 6))
        X = random_stack(rng, n, q)
        Y = random_stack(rng, n, q)
        batched = r_tensor.propagate_many(X, Y)
        assert batched.shape == (m, q)
        for c in range(q):
            single = r_tensor.propagate(X[:, c].copy(), Y[:, c].copy())
            assert np.array_equal(batched[:, c], single)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_dense_reference(self, seed):
        rng = np.random.default_rng(seed)
        tensor = random_sparse_tensor(rng, n=6, m=3)
        r_tensor = RelationTransitionTensor(tensor)
        X = random_stack(rng, 6, 4)
        Y = random_stack(rng, 6, 4)
        expected = dense_mode12_product_many(r_tensor.to_dense(), X, Y)
        assert np.allclose(r_tensor.propagate_many(X, Y), expected)

    def test_columns_stay_on_simplex(self, rng):
        tensor = dangling_heavy_tensor(rng)
        r_tensor = RelationTransitionTensor(tensor)
        n, _, m = tensor.shape
        X = random_stack(rng, n, 5)
        result = r_tensor.propagate_many(X, X)
        assert np.all(result >= 0)
        assert np.allclose(result.sum(axis=0), 1.0)

    def test_rejects_mismatched_shapes(self, tiny_tensor):
        r_tensor = RelationTransitionTensor(tiny_tensor)
        n = tiny_tensor.n_nodes
        with pytest.raises(ShapeError):
            r_tensor.propagate_many(np.ones((n, 2)), np.ones((n, 3)))
        with pytest.raises(ShapeError):
            r_tensor.propagate_many(np.ones((n + 1, 2)), np.ones((n, 2)))


def column_sums(matrix):
    """Per-column 1-D sums, the reduction the kernels promise to reproduce."""
    out = np.empty(matrix.shape[1])
    for c in range(matrix.shape[1]):
        out[c] = matrix[:, c].sum()
    return out


def per_slice_o(o_tensor, X, Z, slices=None):
    """``O x-bar_1 X x-bar_3 Z`` as one sparse product per relation slice.

    ``slices`` optionally passes ``o_tensor.row_blocks(0, n)`` extracted
    once, so a timing compares kernels rather than slice extraction.
    """
    n = o_tensor.shape[0]
    slices = o_tensor.row_blocks(0, n) if slices is None else slices
    result = np.zeros_like(X)
    for k, slice_k in enumerate(slices):
        if slice_k.nnz == 0:
            continue
        contribution = slice_k @ X
        contribution *= Z[k]
        result += contribution
    result += o_tensor.dangling_mass(X, Z) / n
    return result


def per_slice_r(r_tensor, X, Y, slices=None):
    """``R x-bar_1 X x-bar_2 Y`` as one sparse product per relation slice.

    ``slices`` optionally passes ``(*row_blocks(0, n), pair_rows(0, n))``.
    """
    n, _, m = r_tensor.shape
    if slices is None:
        slices = (*r_tensor.row_blocks(0, n), r_tensor.pair_rows(0, n))
    result = np.empty((m, X.shape[1]))
    for k, slice_k in enumerate(slices[:m]):
        result[k] = column_sums(X * (slice_k @ Y)) if slice_k.nnz else 0.0
    totals = column_sums(X) * column_sums(Y)
    linked_mass = column_sums(X * (slices[m] @ Y))
    result += np.maximum(totals - linked_mass, 0.0) / m
    return result


def same_bytes(got, expected):
    return (
        got.shape == expected.shape
        and np.ascontiguousarray(got).tobytes()
        == np.ascontiguousarray(expected).tobytes()
    )


def laid_out(rng, rows, q, layout):
    """A column stack of distributions in the requested memory layout.

    ``"fancy"`` mimics the chain driver's ``X[:, active]`` (an
    F-ordered copy of a column subset).
    """
    if layout == "fancy":
        wide = random_stack(rng, rows, q + 2)
        return wide[:, sorted(rng.choice(q + 2, size=q, replace=False))]
    stack = random_stack(rng, rows, q)
    return np.asfortranarray(stack) if layout == "F" else stack


@st.composite
def stacked_cases(draw):
    """Tensors with empty relations, dangling columns and pairs linked in
    several relations, plus ``(X, Z)`` blocks in C, F or fancy-indexed
    layout."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 40))
    q = draw(st.integers(1, 5))
    layout = draw(st.sampled_from(["C", "F", "fancy"]))
    rng = np.random.default_rng(seed)
    used = rng.choice(m, size=draw(st.integers(0, m)), replace=False)
    n_pairs = draw(st.integers(0, 3 * n)) if used.size else 0
    # Only some source columns carry links: the rest are dangling.
    sources = rng.choice(n, size=max(1, n // 2), replace=False)
    i = np.repeat(rng.integers(0, n, size=n_pairs), 3)
    j = np.repeat(rng.choice(sources, size=n_pairs), 3)
    k = rng.choice(used, size=3 * n_pairs) if used.size else np.empty(0, int)
    keep = np.unique(k * n * n + j * n + i, return_index=True)[1]
    values = rng.uniform(0.1, 2.0, size=keep.size)
    tensor = SparseTensor3(i[keep], j[keep], k[keep], values, shape=(n, n, m))
    return tensor, laid_out(rng, n, q, layout), laid_out(rng, m, q, layout)


class TestStackedKernelsMatchPerSliceLoop:
    """The stacked O/R kernels are byte-for-byte the per-slice loops."""

    @settings(max_examples=150, deadline=None)
    @given(stacked_cases())
    def test_o_matches_per_slice_bytewise(self, case):
        tensor, X, Z = case
        o_tensor = NodeTransitionTensor(tensor)
        got, expected = o_tensor.propagate_many(X, Z), per_slice_o(o_tensor, X, Z)
        assert same_bytes(got, expected)
        # The fit's x-step inherits this layout, and column sums over it
        # (the invariant probes' mass drift) round differently per layout.
        assert got.strides == expected.strides

    @settings(max_examples=150, deadline=None)
    @given(stacked_cases())
    def test_r_matches_per_slice_bytewise(self, case):
        tensor, X, _ = case
        r_tensor = RelationTransitionTensor(tensor)
        Y = X[::-1].copy()
        assert same_bytes(r_tensor.propagate_many(X), per_slice_r(r_tensor, X, X))
        assert same_bytes(r_tensor.propagate_many(X, Y), per_slice_r(r_tensor, X, Y))

    def test_reverse_order_accumulation_is_caught(self):
        # The order in which a node's live rows are added is part of the
        # contract: a gather adding them in reverse rounds differently,
        # and the bytewise comparison notices.
        rng = np.random.default_rng(3)
        tensor = random_sparse_tensor(rng, n=40, m=20, density=0.05)
        o_tensor = NodeTransitionTensor(tensor)
        X = laid_out(rng, 40, 4, "fancy")
        Z = laid_out(rng, 20, 4, "fancy")
        expected = per_slice_o(o_tensor, X, Z)
        assert same_bytes(o_tensor.propagate_many(X, Z), expected)
        live = o_tensor._live
        o_tensor._live = live._replace(gather=reversed_rows(live.gather))
        assert not same_bytes(o_tensor.propagate_many(X, Z), expected)


def reversed_rows(gather):
    """``gather`` as a CSR whose rows list their entries in reverse order,
    so ``gather @ p`` adds each node's live rows last to first."""
    csr = gather.tocsr()
    order = np.concatenate([
        np.arange(stop - 1, start - 1, -1)
        for start, stop in zip(csr.indptr[:-1], csr.indptr[1:])
    ])
    return sp.csr_matrix(
        (csr.data[order], csr.indices[order], csr.indptr), shape=csr.shape
    )


@st.composite
def sparse_relation_cases(draw):
    """Stacks at the extremes of liveness, with ``(X, Z)`` in any layout.

    ``"sparse"``: up to 40 relations and at most one link per source
    node, so nearly every ``(k, i)`` row is empty.  ``"full"``: every
    node has an in-link in every relation, so every row is live.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["sparse", "full"]))
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 40 if kind == "sparse" else 6))
    q = draw(st.integers(1, 5))
    layout = draw(st.sampled_from(["C", "F", "fancy"]))
    rng = np.random.default_rng(seed)
    if kind == "sparse":
        j = rng.choice(n, size=draw(st.integers(0, n)), replace=False)
        i = rng.integers(0, n, size=j.size)
        k = rng.integers(0, m, size=j.size)
    else:
        i = np.tile(np.arange(n), m)
        j = rng.integers(0, n, size=n * m)
        k = np.repeat(np.arange(m), n)
    values = rng.uniform(0.1, 2.0, size=i.size)
    tensor = SparseTensor3(i, j, k, values, shape=(n, n, m))
    return tensor, laid_out(rng, n, q, layout), laid_out(rng, m, q, layout)


class TestLiveRowKernel:
    """The live-row relation sum at the extremes, and on row blocks."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_relation_cases())
    def test_matches_per_slice_bytewise(self, case):
        tensor, X, Z = case
        o_tensor = NodeTransitionTensor(tensor)
        got, expected = o_tensor.propagate_many(X, Z), per_slice_o(o_tensor, X, Z)
        assert same_bytes(got, expected)
        assert got.strides == expected.strides

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(stacked_cases(), sparse_relation_cases()), st.data())
    def test_row_stack_blocks_match_whole_stack(self, case, data):
        tensor, X, Z = case
        o_tensor = NodeTransitionTensor(tensor)
        n = tensor.shape[0]
        whole = o_tensor.relation_sum(X, Z)
        cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
        bounds = [0, *cuts, n]
        for start, stop in zip(bounds[:-1], bounds[1:]):
            block = o_tensor.relation_sum(X, Z, o_tensor.row_stack(start, stop))
            assert same_bytes(block, whole[start:stop])

    def test_index_keeps_only_live_rows(self):
        # Links only in relation 1 (rows 0 and 2) and relation 3 (row 0).
        tensor = SparseTensor3(
            np.array([0, 2, 0]), np.array([1, 1, 2]), np.array([1, 1, 3]),
            np.ones(3), shape=(3, 3, 4),
        )
        rows, counts, gather = NodeTransitionTensor(tensor)._live
        assert rows.shape == (3, 3)
        assert counts.tolist() == [0, 2, 0, 1]
        assert gather.shape == (3, 3)
        assert gather.toarray().tolist() == [[1, 0, 1], [0, 0, 0], [0, 1, 0]]

    def test_empty_tensor_gives_zero_sparse_part(self):
        tensor = SparseTensor3(
            np.empty(0, int), np.empty(0, int), np.empty(0, int), np.empty(0),
            shape=(4, 4, 3),
        )
        o_tensor = NodeTransitionTensor(tensor)
        X, Z = random_stack(np.random.default_rng(0), 4, 2), np.full((3, 2), 1 / 3)
        assert o_tensor._live.rows.shape == (0, 4)
        assert np.array_equal(o_tensor.relation_sum(X, Z), np.zeros((4, 2)))
        assert np.allclose(o_tensor.propagate_many(X, Z), 0.25)
