"""Equivalence tests: IncrementalOperators vs a full operator rebuild.

The exactness contract of ``repro.stream.operators``: after
``ops.apply(batch)`` the cached triple equals ``build_operators`` on
``apply_batch(hin, batch)`` bitwise after every batch — ``O`` and
``R`` (including dangling gain/loss in both directions) and ``W`` on
every path, the incremental cosine-similarity update included.
"""

import gc
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.features import LowRankMatrix
from repro.core.tmark import TMark, build_operators
from repro.errors import ValidationError
from repro.hin.graph import HIN
from repro.obs import ListRecorder, registry_from_events
from repro.stream.delta import GraphDelta, apply_batch
from repro.stream.operators import IncrementalOperators
from repro.stream.workload import synthetic_delta_log
from repro.tensor.sptensor import SparseTensor3
from repro.tensor.transition import RowWalk
from tests.conftest import small_labeled_hin
from tests.stream.test_delta import small_hin


def dense_w(w_matrix):
    """Any ``W`` form (dense, top-k walk, factored) as a dense array."""
    if isinstance(w_matrix, LowRankMatrix):
        return w_matrix.dense()
    if isinstance(w_matrix, RowWalk):
        return w_matrix.row_stack(0, w_matrix.shape[0]).toarray()
    return w_matrix


def assert_matches_rebuild(ops, expected_hin, **build_kwargs):
    """The incremental triple against a cold ``build_operators`` rebuild."""
    ref = build_operators(expected_hin, **build_kwargs)
    got = ops.operators
    assert got.shape == ref.shape
    assert np.array_equal(got.o_tensor.to_dense(), ref.o_tensor.to_dense())
    assert np.array_equal(got.r_tensor.to_dense(), ref.r_tensor.to_dense())
    assert np.array_equal(dense_w(got.w_matrix), dense_w(ref.w_matrix))


def apply_and_check(hin, deltas, **build_kwargs):
    ops = IncrementalOperators(hin, **build_kwargs)
    new_hin = ops.apply(deltas)
    expected = apply_batch(hin, deltas)
    assert new_hin.node_names == expected.node_names
    assert new_hin.tensor == expected.tensor
    assert_matches_rebuild(ops, expected, **build_kwargs)
    return ops, expected


class TestLinkPatches:
    def test_initial_state_matches_full_build(self):
        hin = small_hin()
        ops = IncrementalOperators(hin)
        assert_matches_rebuild(ops, hin)

    def test_pure_addition_bitwise(self):
        apply_and_check(
            small_hin(),
            [
                GraphDelta.add_link("w", "u", "r2"),
                GraphDelta.add_link("u", "w", "r1", weight=0.5),
            ],
        )

    def test_pure_removal_bitwise(self):
        apply_and_check(small_hin(), [GraphDelta.remove_link("u", "v", "r1")])

    def test_mixed_batch_bitwise(self):
        apply_and_check(
            small_hin(),
            [
                GraphDelta.remove_link("v", "w", "r2", directed=True),
                GraphDelta.add_link("v", "w", "r2", weight=3.0, directed=True),
                GraphDelta.add_link("u", "w", "r1"),
            ],
        )

    def test_weight_accumulates_on_existing_link(self):
        apply_and_check(
            small_hin(),
            [
                GraphDelta.add_link("u", "v", "r1", weight=0.25),
                GraphDelta.add_link("u", "v", "r1", weight=0.75),
            ],
        )

    def test_column_gains_first_out_link(self):
        # r3 is empty: every (j, r3) column is dangling; the first link
        # flips two columns (undirected) from dangling to normalised.
        ops, expected = apply_and_check(
            small_hin(), [GraphDelta.add_link("u", "w", "r3")]
        )
        assert ops.operators.o_tensor.n_dangling < 3 * 3

    def test_column_loses_last_out_link(self):
        # u's only r1 partner is v; removing it re-danglifies both
        # (u, r1) and (v, r1) columns and unlinks the (u, v) pair.
        hin = small_hin()
        before = IncrementalOperators(hin).operators
        ops, _ = apply_and_check(hin, [GraphDelta.remove_link("u", "v", "r1")])
        after = ops.operators
        assert after.o_tensor.n_dangling > before.o_tensor.n_dangling
        assert after.r_tensor.n_linked_pairs < before.r_tensor.n_linked_pairs

    def test_dangling_round_trip(self):
        # Gain then lose the same link across two batches: back to the
        # seed operators, still bitwise against the rebuild at each step.
        hin = small_hin()
        ops = IncrementalOperators(hin)
        mid = ops.apply([GraphDelta.add_link("u", "w", "r3")])
        assert_matches_rebuild(ops, mid)
        final = ops.apply([GraphDelta.remove_link("u", "w", "r3")])
        assert_matches_rebuild(ops, final)
        assert final.tensor == hin.tensor

    def test_fibre_gains_and_loses_relation(self):
        # (v, w) is linked through r2 only; adding r1 makes the fibre
        # two-relation, removing r2 drops it back to one.
        apply_and_check(
            small_hin(),
            [
                GraphDelta.add_link("v", "w", "r1"),
                GraphDelta.remove_link("v", "w", "r2", directed=True),
            ],
        )

    def test_label_only_batch_leaves_operators_untouched(self):
        hin = small_hin()
        ops = IncrementalOperators(hin)
        o_before = ops.operators.o_tensor
        r_before = ops.operators.r_tensor
        w_before = ops.operators.w_matrix
        ops.apply([GraphDelta.set_label("w", ["a"])])
        assert ops.operators.o_tensor is o_before
        assert ops.operators.r_tensor is r_before
        assert ops.operators.w_matrix is w_before
        assert ops.hin.label_matrix[2, 0]


class TestNodeGrowth:
    def test_added_node_with_links(self):
        apply_and_check(
            small_hin(),
            [
                GraphDelta.add_node("x", features=[2.0, 1.0], labels=["b"]),
                GraphDelta.add_link("x", "u", "r1"),
                GraphDelta.add_link("w", "x", "r2", directed=True),
            ],
        )

    def test_isolated_node_growth(self):
        # A node with no links: every one of its columns/fibres is
        # dangling — growth alone must reshape the cached slices.
        apply_and_check(
            small_hin(),
            [GraphDelta.add_node("x", features=[0.5, 0.5])],
        )

    def test_link_isolated_node_in_later_batch(self):
        # Dangling gain on a grown index: the column belongs to a node
        # that did not exist when the operators were built.
        hin = small_hin()
        ops = IncrementalOperators(hin)
        mid = ops.apply([GraphDelta.add_node("x", features=[0.5, 0.5])])
        assert_matches_rebuild(ops, mid)
        final = ops.apply([GraphDelta.add_link("x", "v", "r2", directed=True)])
        assert_matches_rebuild(ops, final)


class TestFeaturePatches:
    def test_feature_update_close(self):
        apply_and_check(
            small_hin(),
            [GraphDelta.update_features("u", [3.0, 1.0])],
        )

    def test_feature_update_to_zero_vector(self):
        # Zero features: the node's column falls back to uniform.
        apply_and_check(
            small_hin(),
            [GraphDelta.update_features("v", [0.0, 0.0])],
        )

    def test_batch_changing_several_rows_bitwise(self):
        # Signed features keep the patched dense W; one kernel panel over
        # the changed nodes refreshes all their rows and columns.
        hin = small_labeled_hin(seed=5, n=24, q=3)
        d = hin.features.shape[1]
        rng = np.random.default_rng(5)
        deltas = [
            GraphDelta.update_features(f"v{idx}", rng.normal(size=d).tolist())
            for idx in (2, 7, 11, 19)
        ]
        deltas += [
            GraphDelta.update_features("v3", [0.0] * d),
            GraphDelta.update_features("v7", rng.normal(size=d).tolist()),
            GraphDelta.add_node("x", features=rng.normal(size=d).tolist()),
        ]
        rec = ListRecorder()
        ops = IncrementalOperators(hin)
        new_hin = ops.apply(deltas, recorder=rec)
        (event,) = [e for e in rec.events if e["event"] == "operator_patch"]
        assert event["full_w_recompute"] is False and event["w_form"] == "dense"
        assert_matches_rebuild(ops, new_hin)
        assert_matches_rebuild(ops, apply_batch(hin, deltas))

    def test_link_only_batch_keeps_w_object(self):
        hin = small_hin()
        ops = IncrementalOperators(hin)
        w_before = ops.operators.w_matrix
        ops.apply([GraphDelta.add_link("u", "w", "r3")])
        assert ops.operators.w_matrix is w_before

    def test_sparse_features_full_recompute_bitwise(self):
        # Sparse features route W through the full recompute, which is
        # the exact same code path as the rebuild: bitwise even for
        # feature-touching batches.
        apply_and_check(
            small_hin(sparse_features=True),
            [GraphDelta.update_features("u", [3.0, 1.0])],
        )

    def test_rbf_metric_full_recompute_bitwise(self):
        apply_and_check(
            small_hin(),
            [GraphDelta.update_features("u", [3.0, 1.0])],
            similarity_metric="rbf",
        )

    def test_top_k_full_recompute_bitwise(self):
        apply_and_check(
            small_hin(),
            [GraphDelta.update_features("u", [3.0, 1.0])],
            similarity_top_k=2,
        )


class TestRandomizedSequences:
    @pytest.mark.parametrize("seed", [1, 17, 99])
    def test_synthetic_journal_batchwise_equivalence(self, seed):
        hin = small_labeled_hin(seed=seed, n=20, q=3, m=3)
        log = synthetic_delta_log(hin, 50, batch_size=10, seed=seed)
        ops = IncrementalOperators(hin)
        current = hin
        for batch in log.batches():
            current = apply_batch(current, batch)
            got = ops.apply(batch)
            assert got.tensor == current.tensor
            # Feature/node deltas appear in the mix, and W stays bitwise.
            assert_matches_rebuild(ops, current)

    def test_link_only_journal_stays_bitwise(self):
        hin = small_labeled_hin(seed=4, n=20, q=3, m=3)
        log = synthetic_delta_log(
            hin,
            40,
            batch_size=8,
            seed=13,
            op_weights={"add_link": 0.6, "remove_link": 0.4},
        )
        ops = IncrementalOperators(hin)
        current = hin
        for batch in log.batches():
            current = apply_batch(current, batch)
            ops.apply(batch)
            assert_matches_rebuild(ops, current)


def nonnegative_hin(seed=3, n=40):
    """A small HIN with non-negative features and n >> d (factored W)."""
    base = small_labeled_hin(seed=seed, n=n, q=3, m=3)
    return HIN(
        base.tensor,
        base.relation_names,
        np.abs(base.features),
        base.label_matrix,
        base.label_names,
        node_names=base.node_names,
    )


class TestFactoredW:
    def test_seed_state_is_factored(self):
        ops = IncrementalOperators(nonnegative_hin())
        assert isinstance(ops.operators.w_matrix, LowRankMatrix)
        assert ops._sims is None  # no n x n buffer on the factored path
        assert ops._unit is None
        assert_matches_rebuild(ops, ops.hin)

    @pytest.mark.parametrize("seed", [2, 11])
    def test_feature_and_node_journal_matches_rebuild(self, seed):
        hin = nonnegative_hin(seed=seed)
        log = synthetic_delta_log(
            hin,
            60,
            batch_size=6,
            seed=seed,
            op_weights={
                "add_link": 0.3,
                "remove_link": 0.1,
                "update_features": 0.3,
                "add_node": 0.3,
            },
        )
        batches = [list(batch) for batch in log.batches()]
        d = hin.n_features
        # A featureless newcomer, then a featured node emptied: both
        # columns must turn uniform exactly as a rebuild makes them.
        batches.append([GraphDelta.add_node("blank", features=np.zeros(d))])
        batches.append([GraphDelta.update_features("v4", np.zeros(d))])
        batches.append([GraphDelta.add_link("blank", "v1", "r0")])
        ops = IncrementalOperators(hin)
        current = hin
        saw = set()
        for batch in batches:
            current = apply_batch(current, batch)
            ops.apply(batch)
            link_only = all(delta.op in ("add_link", "remove_link") for delta in batch)
            saw.add("link_only" if link_only else "features")
            assert isinstance(ops.operators.w_matrix, LowRankMatrix)
            # Feature batches rebuild the factored W cold: bitwise too.
            assert_matches_rebuild(ops, current)
        assert saw == {"link_only", "features"}
        assert ops.hin.n_nodes > hin.n_nodes

    def test_negative_feature_switches_to_dense_and_back(self):
        hin = nonnegative_hin()
        ops = IncrementalOperators(hin)
        signed = np.abs(hin.features[2]).copy()
        signed[0] = -1.0
        recorder = ListRecorder()
        mid = ops.apply([GraphDelta.update_features("v2", signed)], recorder=recorder)
        assert isinstance(ops.operators.w_matrix, np.ndarray)
        (event,) = recorder.events_of("operator_patch")
        assert event["full_w_recompute"]
        assert event["w_form"] == "dense"
        assert_matches_rebuild(ops, mid)
        # Later signed edits take the maintained-similarity path.
        later = ops.apply([GraphDelta.update_features("v5", signed)])
        assert_matches_rebuild(ops, later)
        restored = ops.apply(
            [
                GraphDelta.update_features("v2", np.abs(signed)),
                GraphDelta.update_features("v5", np.abs(signed)),
            ]
        )
        assert isinstance(ops.operators.w_matrix, LowRankMatrix)
        assert_matches_rebuild(ops, restored)

    def test_factored_operators_fit_like_a_rebuild(self):
        hin = nonnegative_hin()
        ops = IncrementalOperators(hin)
        ops.apply([GraphDelta.update_features("v3", [0.0, 2.0, 0.5, 1.0, 0.0])])
        model = TMark(alpha=0.8, gamma=0.5).fit(ops.hin, operators=ops.operators)
        reference = TMark(alpha=0.8, gamma=0.5).fit(ops.hin)
        np.testing.assert_array_equal(
            model.result_.node_scores, reference.result_.node_scores
        )


class TestInterfaces:
    def test_rejects_non_hin(self):
        with pytest.raises(ValidationError):
            IncrementalOperators({"not": "a hin"})

    def test_operators_feed_tmark_fit(self):
        hin = small_labeled_hin(seed=2, n=16, q=2, m=2)
        ops = IncrementalOperators(hin)
        ops.apply([GraphDelta.add_link("v0", "v5", "r1")])
        model = TMark(update_labels=False)
        model.fit(ops.hin, operators=ops.operators)
        reference = TMark(update_labels=False).fit(ops.hin)
        np.testing.assert_array_equal(
            model.result_.node_scores, reference.result_.node_scores
        )

    def test_patch_event_emitted(self):
        hin = small_hin()
        ops = IncrementalOperators(hin)
        recorder = ListRecorder()
        ops.apply([GraphDelta.add_link("u", "w", "r3")], recorder=recorder)
        (event,) = recorder.events_of("operator_patch")
        assert event["n_link_ops"] == 2  # undirected: two tensor entries
        assert event["touched_columns"] == 2
        assert event["touched_fibres"] == 2
        assert not event["full_w_recompute"]
        registry = registry_from_events(recorder.events)
        assert registry.get("tmark_operator_patches_total").value == 1


def array_nbytes(*objs):
    """Bytes held by dense arrays and the three arrays of CSR matrices."""
    total = 0
    for obj in objs:
        if sp.issparse(obj):
            total += obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes
        else:
            total += obj.nbytes
    return total


def retained_arrays(operator):
    """Every dense array or sparse matrix an operator keeps in its slots."""
    held = (
        getattr(operator, name)
        for cls in type(operator).__mro__
        for name in getattr(cls, "__slots__", ())
    )
    return [obj for obj in held if sp.issparse(obj) or isinstance(obj, np.ndarray)]


class TestColdBuildMemory:
    def test_retains_little_beyond_its_operators(self):
        # ~30k tensor entries, non-negative features: factored W, so the
        # operators' own arrays are all O(nnz + n d).
        rng = np.random.default_rng(5)
        n, m, n_links = 3000, 3, 15_000
        src = rng.integers(0, n, size=n_links)
        dst = rng.integers(0, n, size=n_links)
        k = rng.integers(0, m, size=n_links)
        tensor = SparseTensor3(
            np.r_[dst, src], np.r_[src, dst], np.r_[k, k], shape=(n, n, m)
        )
        labels = np.zeros((n, 2), dtype=bool)
        labels[np.arange(n), rng.integers(0, 2, size=n)] = True
        features = rng.integers(0, 5, size=(n, 6)).astype(float)
        hin = HIN(tensor, ["r0", "r1", "r2"], features, labels, ["a", "b"])
        assert tensor.nnz > 20_000

        gc.collect()
        tracemalloc.start()
        try:
            ops = IncrementalOperators(hin)
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        o_tensor, r_tensor, w_matrix = ops._o, ops._r, ops._w
        assert isinstance(w_matrix, LowRankMatrix)
        own = array_nbytes(
            *retained_arrays(o_tensor),
            *retained_arrays(r_tensor),
            w_matrix.unit,
            w_matrix.col_scale,
            w_matrix.featureless,
        )
        # Everything retained beyond the operator arrays themselves is
        # bookkeeping; per-column or per-fibre side stores would be a
        # multiple of the operators.
        assert retained < 2 * own
