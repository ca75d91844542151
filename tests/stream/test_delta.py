"""Tests for GraphDelta / DeltaBatch / apply_batch."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ShapeError, ValidationError
from repro.hin.builder import HINBuilder
from repro.hin.graph import HIN
from repro.stream.delta import (
    DeltaBatch,
    GraphDelta,
    apply_batch,
    as_batch,
    materialize_batch,
    resolve_batch,
)
from repro.tensor.sptensor import SparseTensor3


def small_hin(*, multilabel=False, sparse_features=False):
    builder = HINBuilder(["a", "b"], multilabel=multilabel)
    builder.add_node("u", features=[1.0, 0.0], labels=["a"])
    builder.add_node("v", features=[0.0, 1.0], labels=["b"])
    builder.add_node("w", features=[1.0, 1.0])
    builder.add_link("u", "v", "r1")
    builder.add_link("v", "w", "r2", directed=True)
    builder.add_relation("r3")
    hin = builder.build()
    if sparse_features:
        hin = HIN(
            hin.tensor,
            hin.relation_names,
            sp.csr_matrix(hin.features),
            hin.label_matrix,
            hin.label_names,
            node_names=hin.node_names,
            multilabel=multilabel,
        )
    return hin


class TestGraphDelta:
    def test_constructors_set_op(self):
        assert GraphDelta.add_node("x", features=[1.0]).op == "add_node"
        assert GraphDelta.add_link("u", "v", "r").op == "add_link"
        assert GraphDelta.remove_link("u", "v", "r").op == "remove_link"
        assert GraphDelta.set_label("u", ["a"]).op == "set_label"
        assert GraphDelta.update_features("u", [1.0]).op == "update_features"

    def test_bad_op_rejected(self):
        with pytest.raises(ValidationError):
            GraphDelta(op="rename_node", name="u")

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError):
            GraphDelta.add_link("u", "v", "r", weight=0.0)
        with pytest.raises(ValidationError):
            GraphDelta.add_link("u", "v", "r", weight=float("nan"))

    def test_non_finite_features_rejected(self):
        with pytest.raises(ValidationError):
            GraphDelta.add_node("x", features=[np.inf])

    def test_2d_features_rejected(self):
        with pytest.raises(ShapeError):
            GraphDelta.update_features("x", np.eye(2))

    def test_dict_round_trip(self):
        deltas = [
            GraphDelta.add_node("x", features=[1.0, 2.0], labels=["a"]),
            GraphDelta.add_link("u", "v", "r", weight=2.5, directed=True),
            GraphDelta.remove_link("u", "v", "r"),
            GraphDelta.set_label("u", []),
            GraphDelta.update_features("v", [0.5, 0.5]),
        ]
        for delta in deltas:
            assert GraphDelta.from_dict(delta.to_dict()) == delta


class TestDeltaBatch:
    def test_composition_preserves_order(self):
        first = DeltaBatch([GraphDelta.add_link("u", "v", "r")])
        second = DeltaBatch([GraphDelta.remove_link("u", "v", "r")])
        combined = first + second
        assert len(combined) == 2
        assert combined[0].op == "add_link" and combined[1].op == "remove_link"

    def test_rejects_non_delta(self):
        with pytest.raises(ValidationError):
            DeltaBatch(["not a delta"])

    def test_op_counts(self):
        batch = DeltaBatch(
            [GraphDelta.add_link("u", "v", "r"), GraphDelta.add_link("v", "w", "r")]
        )
        assert batch.op_counts() == {"add_link": 2}

    def test_as_batch_accepts_single_delta(self):
        assert len(as_batch(GraphDelta.set_label("u", ["a"]))) == 1


class TestApplyBatch:
    def test_add_link_undirected_writes_both_entries(self):
        hin = small_hin()
        out = apply_batch(hin, [GraphDelta.add_link("u", "w", "r3")])
        dense = out.tensor.to_dense()
        u, w, k = out.node_index("u"), out.node_index("w"), out.relation_index("r3")
        assert dense[w, u, k] == 1.0 and dense[u, w, k] == 1.0

    def test_add_link_accumulates_weight(self):
        hin = small_hin()
        out = apply_batch(
            hin,
            [
                GraphDelta.add_link("u", "v", "r1", weight=2.0),
                GraphDelta.add_link("u", "v", "r1", weight=0.5),
            ],
        )
        assert out.tensor.to_dense()[1, 0, 0] == 1.0 + 2.0 + 0.5

    def test_remove_link_deletes_entry_entirely(self):
        hin = small_hin()
        out = apply_batch(hin, [GraphDelta.remove_link("u", "v", "r1")])
        assert out.tensor.to_dense()[:, :, 0].sum() == 0.0

    def test_remove_absent_link_rejected(self):
        hin = small_hin()
        with pytest.raises(ValidationError):
            apply_batch(hin, [GraphDelta.remove_link("u", "w", "r1")])

    def test_remove_twice_rejected(self):
        hin = small_hin()
        with pytest.raises(ValidationError):
            apply_batch(
                hin,
                [
                    GraphDelta.remove_link("u", "v", "r1"),
                    GraphDelta.remove_link("u", "v", "r1"),
                ],
            )

    def test_remove_then_readd(self):
        hin = small_hin()
        out = apply_batch(
            hin,
            [
                GraphDelta.remove_link("u", "v", "r1"),
                GraphDelta.add_link("u", "v", "r1", weight=3.0),
            ],
        )
        dense = out.tensor.to_dense()
        assert dense[1, 0, 0] == 3.0 and dense[0, 1, 0] == 3.0

    def test_add_then_remove_in_one_batch(self):
        hin = small_hin()
        out = apply_batch(
            hin,
            [
                GraphDelta.add_link("u", "w", "r3"),
                GraphDelta.remove_link("u", "w", "r3"),
            ],
        )
        assert out.tensor.to_dense()[:, :, 2].sum() == 0.0

    def test_directed_remove_of_directed_link(self):
        hin = small_hin()
        out = apply_batch(hin, [GraphDelta.remove_link("v", "w", "r2", directed=True)])
        assert out.tensor.to_dense()[:, :, 1].sum() == 0.0

    def test_undirected_remove_of_directed_link_rejected(self):
        # The converse entry does not exist, so the undirected removal
        # cannot delete "both directions".
        hin = small_hin()
        with pytest.raises(ValidationError):
            apply_batch(hin, [GraphDelta.remove_link("v", "w", "r2")])

    def test_unknown_relation_rejected(self):
        hin = small_hin()
        with pytest.raises(ValidationError):
            apply_batch(hin, [GraphDelta.add_link("u", "v", "brand-new")])

    def test_unknown_node_rejected(self):
        hin = small_hin()
        with pytest.raises(ValidationError):
            apply_batch(hin, [GraphDelta.add_link("u", "nope", "r1")])

    def test_add_node_appends(self):
        hin = small_hin()
        out = apply_batch(
            hin,
            [
                GraphDelta.add_node("x", features=[2.0, 3.0], labels=["a"]),
                GraphDelta.add_link("x", "u", "r1"),
            ],
        )
        assert out.n_nodes == 4
        assert out.node_names[:3] == hin.node_names
        assert out.node_index("x") == 3
        assert np.array_equal(out.features_dense()[3], [2.0, 3.0])
        assert out.label_matrix[3, 0] and not out.label_matrix[3, 1]
        dense = out.tensor.to_dense()
        assert dense[0, 3, 0] == 1.0 and dense[3, 0, 0] == 1.0

    def test_duplicate_node_rejected(self):
        hin = small_hin()
        with pytest.raises(ValidationError):
            apply_batch(hin, [GraphDelta.add_node("u", features=[0.0, 0.0])])

    def test_feature_length_enforced(self):
        hin = small_hin()
        with pytest.raises(ShapeError):
            apply_batch(hin, [GraphDelta.add_node("x", features=[1.0])])
        with pytest.raises(ShapeError):
            apply_batch(hin, [GraphDelta.update_features("u", [1.0, 2.0, 3.0])])

    def test_set_label_replaces(self):
        hin = small_hin()
        out = apply_batch(hin, [GraphDelta.set_label("u", ["b"])])
        assert not out.label_matrix[0, 0] and out.label_matrix[0, 1]

    def test_set_label_clears(self):
        hin = small_hin()
        out = apply_batch(hin, [GraphDelta.set_label("u", [])])
        assert not out.label_matrix[0].any()

    def test_set_label_unknown_label_rejected(self):
        hin = small_hin()
        with pytest.raises(ValidationError):
            apply_batch(hin, [GraphDelta.set_label("u", ["zzz"])])

    def test_multilabel_constraint_enforced(self):
        hin = small_hin()
        with pytest.raises(ValidationError):
            apply_batch(hin, [GraphDelta.set_label("u", ["a", "b"])])
        multi = small_hin(multilabel=True)
        out = apply_batch(multi, [GraphDelta.set_label("u", ["a", "b"])])
        assert out.label_matrix[0].all()

    def test_set_label_on_node_added_in_batch(self):
        hin = small_hin()
        out = apply_batch(
            hin,
            [
                GraphDelta.add_node("x", features=[0.0, 0.0]),
                GraphDelta.set_label("x", ["b"]),
            ],
        )
        assert out.label_matrix[3, 1]

    def test_update_features(self):
        hin = small_hin()
        out = apply_batch(hin, [GraphDelta.update_features("w", [9.0, 9.0])])
        assert np.array_equal(out.features_dense()[2], [9.0, 9.0])
        # The original HIN is untouched.
        assert np.array_equal(hin.features_dense()[2], [1.0, 1.0])

    def test_sparse_features_stay_sparse(self):
        hin = small_hin(sparse_features=True)
        out = apply_batch(
            hin,
            [
                GraphDelta.add_node("x", features=[2.0, 0.0]),
                GraphDelta.update_features("u", [5.0, 0.0]),
            ],
        )
        assert sp.issparse(out.features)
        dense = out.features_dense()
        assert dense[3, 0] == 2.0 and dense[0, 0] == 5.0

    def test_metadata_and_names_preserved(self):
        hin = small_hin()
        hin.metadata["key"] = 7
        out = apply_batch(hin, [GraphDelta.set_label("u", ["a"])])
        assert out.metadata == {"key": 7}
        assert out.relation_names == hin.relation_names
        assert out.label_names == hin.label_names
        assert out.multilabel == hin.multilabel

    def test_empty_batch_is_identity(self):
        hin = small_hin()
        out = apply_batch(hin, [])
        assert out.tensor == hin.tensor
        assert np.array_equal(out.label_matrix, hin.label_matrix)

    def test_link_referencing_node_added_earlier_in_batch(self):
        hin = small_hin()
        out = apply_batch(
            hin,
            [
                GraphDelta.add_node("x", features=[0.0, 0.0]),
                GraphDelta.add_node("y", features=[0.0, 0.0]),
                GraphDelta.add_link("x", "y", "r1"),
            ],
        )
        dense = out.tensor.to_dense()
        assert dense[4, 3, 0] == 1.0 and dense[3, 4, 0] == 1.0


class TestResolvedBatch:
    def test_touch_flags(self):
        hin = small_hin()
        resolved = resolve_batch(hin, [GraphDelta.add_link("u", "w", "r3")])
        assert resolved.touches_links
        assert not resolved.touches_features and not resolved.touches_labels
        resolved = resolve_batch(hin, [GraphDelta.update_features("u", [1.0, 1.0])])
        assert resolved.touches_features and not resolved.touches_links
        resolved = resolve_batch(hin, [GraphDelta.set_label("u", ["a"])])
        assert resolved.touches_labels

    def test_self_loop_single_entry(self):
        hin = small_hin()
        resolved = resolve_batch(hin, [GraphDelta.add_link("u", "u", "r1")])
        assert len(resolved.link_ops) == 1
        out = apply_batch(hin, [GraphDelta.add_link("u", "u", "r1", weight=1.5)])
        assert out.tensor.to_dense()[0, 0, 0] == 1.5


def _assert_same_hin(out, expected):
    assert out.node_names == expected.node_names
    assert dict(out.node_positions) == dict(expected.node_positions)
    assert out.relation_names == expected.relation_names
    assert out.label_names == expected.label_names
    assert out.label_matrix.tobytes() == expected.label_matrix.tobytes()
    assert out.features_dense().tobytes() == expected.features_dense().tobytes()
    assert out.tensor.shape == expected.tensor.shape
    for got, want in zip(out.tensor.coords, expected.tensor.coords):
        assert np.array_equal(got, want)
    assert out.tensor.values.tobytes() == expected.tensor.values.tobytes()


class TestMaterializeBatch:
    """The post-batch graph is a derivation of the pre-batch one that
    equals a graph built from scratch."""

    @pytest.mark.parametrize("sparse_features", [False, True])
    def test_with_new_nodes_equals_fresh_build(self, sparse_features):
        hin = small_hin(sparse_features=sparse_features)
        out = apply_batch(
            hin,
            [
                GraphDelta.add_node("x", features=[0.5, 0.5], labels=["a"]),
                GraphDelta.add_link("x", "u", "r1"),
                GraphDelta.set_label("w", ["b"]),
                GraphDelta.update_features("v", [2.0, 0.0]),
            ],
        )
        builder = HINBuilder(["a", "b"])
        builder.add_node("u", features=[1.0, 0.0], labels=["a"])
        builder.add_node("v", features=[2.0, 0.0], labels=["b"])
        builder.add_node("w", features=[1.0, 1.0], labels=["b"])
        builder.add_node("x", features=[0.5, 0.5], labels=["a"])
        builder.add_link("u", "v", "r1")
        builder.add_link("v", "w", "r2", directed=True)
        builder.add_relation("r3")
        builder.add_link("x", "u", "r1")
        _assert_same_hin(out, builder.build())
        assert out.relation_names is hin.relation_names
        assert out.label_names is hin.label_names
        # The parent's index is copied, never grown in place.
        assert len(hin.node_positions) == 3 and "x" not in hin.node_positions

    def test_without_new_nodes_equals_fresh_build_and_shares_names(self):
        hin = small_hin()
        out = apply_batch(
            hin,
            [
                GraphDelta.set_label("w", ["a"]),
                GraphDelta.update_features("u", [3.0, 3.0]),
                GraphDelta.remove_link("u", "v", "r1"),
            ],
        )
        builder = HINBuilder(["a", "b"])
        builder.add_node("u", features=[3.0, 3.0], labels=["a"])
        builder.add_node("v", features=[0.0, 1.0], labels=["b"])
        builder.add_node("w", features=[1.0, 1.0], labels=["a"])
        builder.add_relation("r1")
        builder.add_link("v", "w", "r2", directed=True)
        builder.add_relation("r3")
        _assert_same_hin(out, builder.build())
        assert out.node_names is hin.node_names
        assert out._node_index is hin._node_index

    def test_sparse_features_equal_row_by_row_lil_rebuild(self):
        rng = np.random.default_rng(3)
        base = small_hin()
        n, d = 40, 6
        features = sp.random(n, d, density=0.3, format="csr", random_state=5)
        hin = HIN(
            SparseTensor3([0, 1], [1, 2], [0, 1], shape=(n, n, base.n_relations)),
            base.relation_names,
            features,
            np.zeros((n, 2), dtype=bool),
            base.label_names,
        )
        sparse_row = np.where(rng.random(d) < 0.5, rng.random(d), 0.0)
        batch = [
            GraphDelta.add_node("x", features=rng.random(d)),
            GraphDelta.update_features("node_3", sparse_row),
            GraphDelta.add_node("y", features=np.zeros(d)),
            GraphDelta.update_features("node_3", rng.random(d)),
            GraphDelta.update_features("x", sparse_row),
            GraphDelta.update_features("node_39", np.zeros(d)),
            GraphDelta.update_features("node_0", rng.random(d)),
        ]
        resolved = resolve_batch(hin, batch)
        # The reference: the row-by-row lil rebuild, later writes winning.
        expected = sp.lil_matrix((resolved.n_new, d), dtype=float)
        expected[:n] = hin.features
        for offset, (_, feats, _) in enumerate(resolved.new_nodes):
            expected[n + offset] = feats
        for idx, feats in resolved.feature_ops:
            expected[idx] = feats
        expected = expected.tocsr()
        got = materialize_batch(hin, resolved).features
        assert sp.isspmatrix_csr(got) and got.shape == expected.shape
        assert (got != expected).nnz == 0

    def test_untouched_parts_are_shared(self):
        hin = small_hin()
        relabelled = apply_batch(hin, [GraphDelta.set_label("w", ["a"])])
        assert relabelled.tensor is hin.tensor
        assert relabelled.features is hin.features
        linked = apply_batch(hin, [GraphDelta.add_link("u", "w", "r3")])
        assert linked.features is hin.features
        assert linked.label_matrix is hin.label_matrix
        assert not linked.label_matrix.flags.writeable
