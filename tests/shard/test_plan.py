"""Tests for shard planning (repro.shard.plan).

The contract under test: a plan covers the node axis with contiguous,
non-overlapping, non-empty ranges in index order; the halo of a
shard is exactly the out-of-range node set its operator blocks read; and
degenerate requests (more shards than nodes, unknown operator kinds)
degrade or fail loudly instead of producing broken partitions.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.features import feature_transition_matrix
from repro.errors import ValidationError
from repro.shard import plan_shards
from repro.shard.plan import _row_halo
from repro.tensor.transition import RowWalk, build_transition_tensors
from tests.conftest import small_labeled_hin


@pytest.fixture(scope="module")
def operators():
    hin = small_labeled_hin(seed=3, n=40, q=3)
    o_tensor, r_tensor = build_transition_tensors(hin.tensor)
    w_csr = feature_transition_matrix(hin.features, top_k=5)
    return o_tensor, r_tensor, w_csr, RowWalk(w_csr)


class TestRowsPolicy:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7])
    def test_covers_node_axis_contiguously(self, operators, k):
        o_tensor, r_tensor, _, w_sparse = operators
        plan = plan_shards(o_tensor, r_tensor, w_sparse, k)
        assert plan.n == o_tensor.shape[0]
        assert 1 <= plan.n_shards <= k
        assert plan.boundaries[0] == 0
        assert plan.boundaries[-1] == plan.n
        for index, shard in enumerate(plan.shards):
            assert shard.index == index
            assert shard.start < shard.stop  # non-empty
            assert shard.stop == plan.boundaries[index + 1]
            assert shard.size == shard.stop - shard.start

    def test_more_shards_than_nodes_caps(self, operators):
        o_tensor, r_tensor, _, w_sparse = operators
        plan = plan_shards(o_tensor, r_tensor, w_sparse, 1000)
        assert plan.n_shards <= o_tensor.shape[0]
        assert plan.boundaries[-1] == plan.n

    def test_nnz_balance(self, operators):
        o_tensor, r_tensor, _, w_sparse = operators
        plan = plan_shards(o_tensor, r_tensor, w_sparse, 4)
        loads = [shard.nnz for shard in plan.shards]
        # Contiguous balanced-prefix splits cannot be perfect, but on a
        # near-uniform graph no shard should carry twice the mean load.
        assert max(loads) <= 2 * sum(loads) / len(loads)
        assert min(loads) > 0

    def test_halo_is_out_of_range_block_columns(self, operators):
        o_tensor, r_tensor, w_csr, w_sparse = operators
        plan = plan_shards(o_tensor, r_tensor, w_sparse, 3)
        assert plan.halo_total == sum(s.halo_size for s in plan.shards)
        for shard in plan.shards:
            halo = shard.halo
            assert np.array_equal(halo, np.unique(halo))  # sorted, unique
            in_range = (halo >= shard.start) & (halo < shard.stop)
            assert not in_range.any()
            # Recompute the reference set from the raw blocks.
            columns = []
            for block in o_tensor.row_blocks(shard.start, shard.stop):
                columns.append(block.indices)
            for block in r_tensor.row_blocks(shard.start, shard.stop):
                columns.append(block.indices)
            columns.append(r_tensor.pair_rows(shard.start, shard.stop).indices)
            columns.append(w_csr[shard.start : shard.stop].indices)
            reference = np.unique(np.concatenate(columns))
            reference = reference[
                (reference < shard.start) | (reference >= shard.stop)
            ]
            assert np.array_equal(halo, reference)

    def test_no_w_shrinks_halo(self, operators):
        o_tensor, r_tensor, _, w_sparse = operators
        with_w = plan_shards(o_tensor, r_tensor, w_sparse, 2)
        without = plan_shards(o_tensor, r_tensor, None, 2)
        assert without.halo_total <= with_w.halo_total


def _unique_halo(start, stop, blocks, n):
    """The halo by sorting every referenced column (the reference form)."""
    pieces = [block.indices for block in blocks]
    cols = np.unique(np.concatenate(pieces)) if pieces else np.empty(0, np.int64)
    return cols[(cols < start) | (cols >= stop)].astype(np.int64)


class TestRowHalo:
    @pytest.mark.parametrize("seed", range(6))
    def test_mask_matches_sorting_the_columns(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        start = int(rng.integers(0, n))
        stop = int(rng.integers(start + 1, n + 1))
        blocks = [
            sp.random(
                stop - start, n, density=density, format="csr", random_state=rng
            )
            for density in (0.0, 0.02, 0.3, 1.0)
        ]
        halo = _row_halo(start, stop, blocks, n)
        expected = _unique_halo(start, stop, blocks, n)
        assert halo.dtype == np.int64
        assert np.array_equal(halo, expected)

    def test_empty_blocks_have_no_halo(self):
        empty = sp.csr_matrix((3, 10))
        halo = _row_halo(2, 5, [empty, empty], 10)
        assert halo.dtype == np.int64 and halo.size == 0
        assert np.array_equal(halo, _unique_halo(2, 5, [empty, empty], 10))
        assert _row_halo(0, 4, [], 4).size == 0


class TestValidation:
    def test_zero_shards_rejected(self, operators):
        o_tensor, r_tensor, _, w_sparse = operators
        with pytest.raises(ValidationError):
            plan_shards(o_tensor, r_tensor, w_sparse, 0)

    def test_unknown_operator_kind_rejected(self):
        class Mystery:
            shape = (4, 4, 2)

        with pytest.raises(ValidationError, match="neither row_blocks"):
            plan_shards(Mystery(), Mystery(), None, 2)
