"""The row-walk contract of ``O``, ``R`` and the top-k ``W``.

``row_walk(start, stop)`` is the one way the tensors' rows are read.
In memory a range is one block, built once and kept (the whole range's
block with the tensor); over the operator cache's memory-mapped stack
(``from_stack(..., chunk_size=)``) it is ``chunk_size``-row CSR blocks
built as walked, never copied to CSC and never indexed whole.  Every
walk gives the in-memory products byte for byte.  The top-k ``W`` is
a plain walk over its CSR, applied as ``W @ X``: in memory its
whole-range block is the CSR itself.
"""

import math

import numpy as np
import pytest

import repro.tensor.transition as transition
from repro.core.features import (
    feature_transition_matrix,
    topk_cosine_transition_matrix,
    walk_matrix_form,
)
from repro.core.tmark import build_operators
from repro.datasets.synthetic import RelationSpec, make_synthetic_hin
from repro.ooc import GraphStore, build_chunked_operators
from repro.stream import IncrementalOperators
from repro.tensor.transition import (
    NodeTransitionTensor,
    RelationTransitionTensor,
    RowWalk,
)


def synthetic(n_relations):
    """A 60-node HIN: 20 sparse link types (most ``(k, i)`` rows empty, the
    in-memory ``R`` multiplies by columns) or 2 dense ones (by rows)."""
    links = 8 if n_relations > 2 else 150
    return make_synthetic_hin(
        60,
        ["a", "b", "c"],
        [
            RelationSpec(f"r{k}", n_links=links, homophily=0.6)
            for k in range(n_relations)
        ],
        seed=5,
    )


@pytest.fixture(scope="module", params=[20, 2], ids=["sparse", "dense"])
def hin(request):
    return synthetic(request.param)


def distributions(rng, rows, q):
    stack = rng.uniform(0.01, 1.0, size=(rows, q))
    return stack / stack.sum(axis=0)


class _Counting:
    """Counts calls of a module function and the rows each was given."""

    def __init__(self, function):
        self.function = function
        self.rows = []

    def __call__(self, stacked, *args):
        self.rows.append(stacked.shape[0])
        return self.function(stacked, *args)


class TestInMemoryWalk:
    def test_o_builds_each_range_once(self, hin, monkeypatch):
        spy = _Counting(transition.live_rows)
        monkeypatch.setattr(transition, "live_rows", spy)
        o_tensor = NodeTransitionTensor(hin.tensor)
        n, _, m = o_tensor.shape
        assert spy.rows == [m * n]  # the whole range, with the tensor
        rng = np.random.default_rng(0)
        X, Z = distributions(rng, n, 3), distributions(rng, m, 3)
        first = o_tensor.propagate_many(X, Z)
        second = o_tensor.propagate_many(X, Z)
        assert first.tobytes() == second.tobytes()
        assert spy.rows == [m * n]
        ((a, b, block),) = o_tensor.row_walk(10, 25)
        ((_, _, again),) = o_tensor.row_walk(10, 25)
        assert (a, b) == (10, 25) and again is block
        assert spy.rows == [m * n, m * 15]

    def test_r_builds_each_range_once(self, hin, monkeypatch):
        spy = _Counting(transition.product_operand)
        monkeypatch.setattr(transition, "product_operand", spy)
        r_tensor = RelationTransitionTensor(hin.tensor)
        n, _, m = r_tensor.shape
        assert spy.rows == [(m + 1) * n]
        X = distributions(np.random.default_rng(1), n, 3)
        first, second = r_tensor.propagate_many(X), r_tensor.propagate_many(X)
        assert first.tobytes() == second.tobytes()
        assert spy.rows == [(m + 1) * n]
        ((_, _, block),) = r_tensor.row_walk(0, 30)
        ((_, _, again),) = r_tensor.row_walk(0, 30)
        assert again is block
        assert spy.rows == [(m + 1) * n, (m + 1) * 30]

    def test_whole_range_product_takes_the_block_as_is(self, hin, monkeypatch):
        # The (m+1, n, q) integrands of the one whole-range block are the
        # array contract() reads: no copy into a second buffer.
        integrands = RelationTransitionTensor.integrands
        contract = RelationTransitionTensor.contract
        seen = []

        def spy_integrands(self, *args):
            seen.append(integrands(self, *args))
            return seen[-1]

        def spy_contract(self, values, X, Y):
            seen.append(values)
            return contract(self, values, X, Y)

        monkeypatch.setattr(RelationTransitionTensor, "integrands", spy_integrands)
        monkeypatch.setattr(RelationTransitionTensor, "contract", spy_contract)
        r_tensor = RelationTransitionTensor(hin.tensor)
        n, _, m = r_tensor.shape
        r_tensor.propagate_many(distributions(np.random.default_rng(2), n, 2))
        assert len(seen) == 2 and seen[1] is seen[0]
        assert seen[0].shape == (m + 1, n, 2)


@pytest.fixture(scope="module")
def stored(hin, tmp_path_factory):
    """The store of ``hin`` and its in-memory operators."""
    store = GraphStore.save(hin, tmp_path_factory.mktemp("store") / "store")
    return GraphStore.open(store.directory), build_operators(hin)


def chunk_sizes(n):
    return [1, 7, n - 1, n, 2 * n]


class TestStoreBackedWalk:
    @pytest.mark.parametrize("which", ["o", "r"])
    def test_walk_yields_chunked_csr_blocks(self, stored, which):
        store, _ = stored
        n = store.n_nodes
        for chunk in chunk_sizes(n):
            operators = build_chunked_operators(
                store, chunk_size=chunk, build_w=False
            )
            tensor = operators.o_tensor if which == "o" else operators.r_tensor
            for start, stop in ((0, n), (5, 41), (n - 3, n)):
                blocks = list(tensor.row_walk(start, stop))
                assert len(blocks) == math.ceil((stop - start) / chunk)
                assert [a for a, _, _ in blocks] == list(range(start, stop, chunk))
                assert blocks[-1][1] == stop
                for _, _, block in blocks:
                    rows = block.rows if which == "o" else block
                    assert rows.format == "csr"
            assert not tensor._kept  # nothing walked is kept

    def test_products_equal_in_memory_bytes(self, stored):
        store, in_memory = stored
        n, m = in_memory.shape
        rng = np.random.default_rng(3)
        X, Z = distributions(rng, n, 4), distributions(rng, m, 4)
        Y = np.asfortranarray(distributions(rng, n, 4))
        o_expected = in_memory.o_tensor.propagate_many(X, Z)
        r_expected = in_memory.r_tensor.propagate_many(X)
        r_pair_expected = in_memory.r_tensor.propagate_many(X, Y)
        for chunk in chunk_sizes(n):
            operators = build_chunked_operators(
                store, chunk_size=chunk, build_w=False
            )
            o_got = operators.o_tensor.propagate_many(X, Z)
            assert o_got.tobytes() == o_expected.tobytes(), chunk
            assert o_got.strides == o_expected.strides
            r_got = operators.r_tensor.propagate_many(X)
            assert r_got.tobytes() == r_expected.tobytes(), chunk
            r_pair = operators.r_tensor.propagate_many(X, Y)
            assert r_pair.tobytes() == r_pair_expected.tobytes(), chunk

    def test_no_whole_stack_index_is_built(self, stored, monkeypatch):
        store, in_memory = stored
        n, m = in_memory.shape
        chunk = 7
        operators = build_chunked_operators(store, chunk_size=chunk, build_w=False)
        spy = _Counting(transition.live_rows)
        monkeypatch.setattr(transition, "live_rows", spy)
        X, Z = distributions(np.random.default_rng(4), n, 2), np.full((m, 2), 1 / m)
        operators.o_tensor.propagate_many(X, Z)
        assert len(spy.rows) == math.ceil(n / chunk)
        assert max(spy.rows) == m * chunk


@pytest.fixture(scope="module")
def topk_w(tmp_path_factory):
    """A 60-node HIN's top-k ``W``: the CSR, the in-memory walk, the store."""
    hin = synthetic(2)
    store = GraphStore.save(hin, tmp_path_factory.mktemp("w_store") / "store")
    csr = feature_transition_matrix(hin.features, top_k=5)
    return hin, csr, build_operators(hin, similarity_top_k=5).w_matrix, store


class TestFeatureWalk:
    """The top-k ``W`` is a :class:`RowWalk` in every tier."""

    def operands(self, n):
        rng = np.random.default_rng(6)
        X = distributions(rng, n, 3)
        return X, np.asfortranarray(X), X[:, 1].copy()

    def test_in_memory_walk_equals_the_csr_product(self, topk_w):
        hin, csr, walk, _ = topk_w
        n = hin.n_nodes
        for X in self.operands(n):
            expected = (csr @ X).tobytes()
            assert (walk @ X).tobytes() == expected
            for chunk in chunk_sizes(n):
                assert (RowWalk(csr, chunk) @ X).tobytes() == expected, chunk

    def test_store_backed_walk_equals_the_csr_product(self, topk_w):
        hin, _, _, store = topk_w
        # The store writes the chunked top-k build's CSR.
        csr = topk_cosine_transition_matrix(hin.features, 5)
        X = self.operands(hin.n_nodes)[0]
        for chunk in chunk_sizes(hin.n_nodes):
            operators = build_chunked_operators(
                store, similarity_top_k=5, chunk_size=chunk
            )
            assert isinstance(operators.w_matrix, RowWalk)
            assert (operators.w_matrix @ X).tobytes() == (csr @ X).tobytes(), chunk

    def test_in_memory_walk_keeps_no_copy(self, topk_w):
        hin, csr, walk, _ = topk_w
        n = hin.n_nodes
        own = RowWalk(csr)
        ((a, b, block),) = own.row_walk(0, n)
        assert (a, b) == (0, n) and block is csr
        assert own.row_blocks(0, n) == (csr,)
        # The operators' walk: its kept whole-range block is its CSR.
        ((_, _, kept),) = walk.row_walk(0, n)
        assert kept is walk.row_stack(0, n)
        walk @ self.operands(n)[0]
        ((_, _, again),) = walk.row_walk(0, n)
        assert again is kept

    def test_form_is_sparse_in_every_tier(self, topk_w):
        hin, _, walk, store = topk_w
        streaming = IncrementalOperators(hin, similarity_top_k=5).operators
        stored_w = build_chunked_operators(
            store, similarity_top_k=5, chunk_size=7
        ).w_matrix
        for w_matrix in (walk, streaming.w_matrix, stored_w):
            assert isinstance(w_matrix, RowWalk)
            assert walk_matrix_form(w_matrix) == ("sparse", hin.n_nodes)
