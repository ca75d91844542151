"""Tests for HINBuilder."""

import numpy as np
import pytest

from repro.errors import ShapeError, ValidationError
from repro.hin.builder import HINBuilder


def two_node_builder():
    builder = HINBuilder(["a", "b"])
    builder.add_node("u", features=[1.0, 0.0], labels=["a"])
    builder.add_node("v", features=[0.0, 1.0], labels=["b"])
    return builder


class TestNodes:
    def test_indices_sequential(self):
        builder = HINBuilder(["a", "b"])
        assert builder.add_node("u", features=[1.0, 0.0], labels=["a"]) == 0
        assert builder.add_node("v", features=[0.0, 1.0], labels=["b"]) == 1
        assert builder.n_nodes == 2

    def test_duplicate_node_rejected(self):
        builder = two_node_builder()
        with pytest.raises(ValidationError):
            builder.add_node("u", features=[0.0, 0.0])

    def test_feature_length_enforced(self):
        builder = two_node_builder()
        with pytest.raises(ShapeError):
            builder.add_node("w", features=[1.0])

    def test_feature_must_be_1d(self):
        builder = HINBuilder(["a", "b"])
        with pytest.raises(ShapeError):
            builder.add_node("u", features=np.eye(2))

    def test_unknown_label_rejected(self):
        builder = HINBuilder(["a", "b"])
        with pytest.raises(ValidationError):
            builder.add_node("u", features=[1.0], labels=["zzz"])

    def test_multiple_labels_rejected_when_single(self):
        builder = HINBuilder(["a", "b"])
        with pytest.raises(ValidationError):
            builder.add_node("u", features=[1.0], labels=["a", "b"])

    def test_multiple_labels_allowed_when_multilabel(self):
        builder = HINBuilder(["a", "b"], multilabel=True)
        builder.add_node("u", features=[1.0], labels=["a", "b"])
        builder.add_relation("r")
        hin = builder.build()
        assert hin.label_matrix[0].all()

    def test_empty_label_space_rejected(self):
        with pytest.raises(ValidationError):
            HINBuilder([])

    def test_duplicate_label_names_rejected(self):
        with pytest.raises(ValidationError):
            HINBuilder(["a", "a"])


class TestLinks:
    def test_undirected_creates_both_directions(self):
        builder = two_node_builder()
        builder.add_link("u", "v", "r")
        hin = builder.build()
        dense = hin.tensor.to_dense()
        assert dense[1, 0, 0] == 1.0 and dense[0, 1, 0] == 1.0

    def test_directed_creates_one_direction(self):
        builder = two_node_builder()
        builder.add_link("u", "v", "r", directed=True)
        dense = builder.build().tensor.to_dense()
        # Walk steps along u -> v: entry A[v, u].
        assert dense[1, 0, 0] == 1.0 and dense[0, 1, 0] == 0.0

    def test_unknown_endpoint_rejected(self):
        builder = two_node_builder()
        with pytest.raises(ValidationError):
            builder.add_link("u", "nope", "r")
        with pytest.raises(ValidationError):
            builder.add_link("nope", "v", "r")

    def test_nonpositive_weight_rejected(self):
        builder = two_node_builder()
        with pytest.raises(ValidationError):
            builder.add_link("u", "v", "r", weight=0.0)

    def test_relation_registration_idempotent(self):
        builder = two_node_builder()
        assert builder.add_relation("r") == builder.add_relation("r")
        assert builder.n_relations == 1

    def test_link_group_pairwise(self):
        builder = HINBuilder(["a", "b"])
        for name in "xyz":
            builder.add_node(name, features=[1.0], labels=["a"])
        builder.link_group(["x", "y", "z"], "clique")
        dense = builder.build().tensor.to_dense()
        # 3 undirected pairs -> 6 directed entries.
        assert dense.sum() == 6

    def test_link_group_skips_self(self):
        builder = two_node_builder()
        builder.link_group(["u", "u", "v"], "r")
        dense = builder.build().tensor.to_dense()
        assert np.trace(dense[:, :, 0]) == 0

    def test_link_group_deduplicates_members(self):
        # Repeated names must not multiply pair weights: ["a", "b", "a"]
        # links the (a, b) pair exactly once.
        builder = two_node_builder()
        builder.link_group(["u", "v", "u"], "r")
        dense = builder.build().tensor.to_dense()
        assert dense[0, 1, 0] == 1.0 and dense[1, 0, 0] == 1.0
        assert dense.sum() == 2

    def test_undirected_self_loop_stored_once(self):
        # An undirected self-loop is its own converse; storing both
        # orientations used to double its weight in A.
        builder = two_node_builder()
        builder.add_link("u", "u", "r", weight=1.5)
        dense = builder.build().tensor.to_dense()
        assert dense[0, 0, 0] == 1.5
        assert dense.sum() == 1.5

    def test_directed_self_loop_unchanged(self):
        builder = two_node_builder()
        builder.add_link("u", "u", "r", weight=2.0, directed=True)
        dense = builder.build().tensor.to_dense()
        assert dense[0, 0, 0] == 2.0


class TestBuild:
    def test_empty_builder_rejected(self):
        with pytest.raises(ValidationError):
            HINBuilder(["a", "b"]).build()

    def test_requires_a_relation(self):
        builder = two_node_builder()
        with pytest.raises(ValidationError):
            builder.build()

    def test_relation_with_no_links_is_kept(self):
        builder = two_node_builder()
        builder.add_relation("lonely")
        hin = builder.build()
        assert hin.relation_names == ("lonely",)
        assert hin.tensor.nnz == 0

    def test_parallel_links_sum_weights(self):
        builder = two_node_builder()
        builder.add_link("u", "v", "r", weight=1.0, directed=True)
        builder.add_link("u", "v", "r", weight=2.0, directed=True)
        assert builder.build().tensor.to_dense()[1, 0, 0] == 3.0

    def test_metadata_attached(self):
        builder = two_node_builder()
        builder.add_relation("r")
        hin = builder.build(metadata={"key": 1})
        assert hin.metadata == {"key": 1}

    def test_features_and_labels_aligned(self):
        builder = two_node_builder()
        builder.add_relation("r")
        hin = builder.build()
        assert np.allclose(hin.features_dense(), np.eye(2))
        assert np.array_equal(hin.y, [0, 1])
