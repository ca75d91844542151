"""Tests for the HIN container."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ShapeError, ValidationError
from repro.hin.graph import HIN
from repro.tensor.sptensor import SparseTensor3


def make_hin(multilabel=False):
    tensor = SparseTensor3([0, 1], [1, 2], [0, 1], shape=(3, 3, 2))
    labels = np.array([[1, 0], [0, 1], [0, 0]], dtype=bool)
    if multilabel:
        labels = np.array([[1, 1], [0, 1], [0, 0]], dtype=bool)
    return HIN(
        tensor,
        ["r0", "r1"],
        np.eye(3),
        labels,
        ["a", "b"],
        node_names=["n0", "n1", "n2"],
        multilabel=multilabel,
        metadata={"origin": "test"},
    )


class TestConstruction:
    def test_shape_properties(self):
        hin = make_hin()
        assert (hin.n_nodes, hin.n_relations, hin.n_labels, hin.n_features) == (3, 2, 2, 3)

    def test_default_node_names(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 1))
        hin = HIN(tensor, ["r"], np.zeros((2, 1)), np.zeros((2, 1), bool), ["a"])
        assert hin.node_names == ("node_0", "node_1")

    def test_rejects_non_tensor(self):
        with pytest.raises(ValidationError):
            HIN(np.zeros((2, 2, 1)), ["r"], np.zeros((2, 1)), np.zeros((2, 1), bool), ["a"])

    def test_rejects_wrong_relation_count(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 2))
        with pytest.raises(ShapeError):
            HIN(tensor, ["r"], np.zeros((2, 1)), np.zeros((2, 1), bool), ["a"])

    def test_rejects_duplicate_relation_names(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 2))
        with pytest.raises(ValidationError):
            HIN(tensor, ["r", "r"], np.zeros((2, 1)), np.zeros((2, 1), bool), ["a"])

    def test_rejects_feature_row_mismatch(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 1))
        with pytest.raises(ShapeError):
            HIN(tensor, ["r"], np.zeros((3, 1)), np.zeros((2, 1), bool), ["a"])

    def test_rejects_label_shape_mismatch(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 1))
        with pytest.raises(ShapeError):
            HIN(tensor, ["r"], np.zeros((2, 1)), np.zeros((3, 1), bool), ["a"])

    def test_rejects_multilabel_rows_when_single(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 1))
        labels = np.array([[1, 1], [0, 0]], dtype=bool)
        with pytest.raises(ValidationError):
            HIN(tensor, ["r"], np.zeros((2, 1)), labels, ["a", "b"])

    def test_rejects_duplicate_node_names(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 1))
        with pytest.raises(ValidationError):
            HIN(
                tensor, ["r"], np.zeros((2, 1)), np.zeros((2, 1), bool), ["a"],
                node_names=["x", "x"],
            )

    def test_sparse_features_accepted(self):
        tensor = SparseTensor3([], [], [], shape=(2, 2, 1))
        hin = HIN(
            tensor, ["r"], sp.eye(2, format="csr"), np.zeros((2, 1), bool), ["a"]
        )
        assert sp.issparse(hin.features)
        assert np.allclose(hin.features_dense(), np.eye(2))

    def test_label_matrix_is_readonly(self):
        hin = make_hin()
        with pytest.raises(ValueError):
            hin.label_matrix[0, 0] = False

    def test_repr_mentions_counts(self):
        assert "n_nodes=3" in repr(make_hin())


class TestLabelViews:
    def test_labeled_mask(self):
        assert np.array_equal(make_hin().labeled_mask, [True, True, False])

    def test_y_single_label(self):
        assert np.array_equal(make_hin().y, [0, 1, -1])

    def test_y_rejected_for_multilabel(self):
        with pytest.raises(ValidationError):
            make_hin(multilabel=True).y

    def test_index_lookups(self):
        hin = make_hin()
        assert hin.node_index("n1") == 1
        assert hin.relation_index("r1") == 1
        assert hin.label_index("b") == 1

    def test_unknown_names_raise(self):
        hin = make_hin()
        with pytest.raises(ValidationError):
            hin.node_index("nope")
        with pytest.raises(ValidationError):
            hin.relation_index("nope")
        with pytest.raises(ValidationError):
            hin.label_index("nope")


class TestDerivedHins:
    def test_masked_hides_labels(self):
        hin = make_hin()
        masked = hin.masked(np.array([True, False, False]))
        assert np.array_equal(masked.y, [0, -1, -1])
        # Original is untouched.
        assert np.array_equal(hin.y, [0, 1, -1])

    def test_masked_shape_check(self):
        with pytest.raises(ShapeError):
            make_hin().masked(np.ones(5, dtype=bool))

    def test_with_labels_replaces(self):
        hin = make_hin()
        new_labels = np.zeros((3, 2), dtype=bool)
        new_labels[2, 0] = True
        replaced = hin.with_labels(new_labels)
        assert np.array_equal(replaced.y, [-1, -1, 0])

    def test_with_relations_subsets(self):
        hin = make_hin()
        sub = hin.with_relations([1])
        assert sub.n_relations == 1
        assert sub.relation_names == ("r1",)
        assert sub.tensor.relation_slice(0).toarray()[1, 2] == 1.0

    def test_with_relations_rejects_bad_index(self):
        with pytest.raises(ValidationError):
            make_hin().with_relations([5])

    def test_with_relations_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            make_hin().with_relations([0, 0])

    def test_metadata_propagates(self):
        hin = make_hin()
        assert hin.masked(np.ones(3, bool)).metadata["origin"] == "test"


class TestDerivation:
    """A derived HIN carries its parent's validated state by reference."""

    def test_view_shares_structure_names_and_indexes(self):
        hin = make_hin()
        view = hin.masked(np.array([True, False, True]))
        assert view.tensor is hin.tensor
        assert view.features is hin.features
        assert view.node_names is hin.node_names
        assert view.relation_names is hin.relation_names
        assert view.label_names is hin.label_names
        assert view._node_index is hin._node_index
        assert view._relation_index is hin._relation_index
        assert view.label_matrix is not hin.label_matrix

    def test_with_labels_rejects_wrong_shape(self):
        hin = make_hin()
        for shape in ((3, 3), (2, 2), (3,)):
            with pytest.raises(ShapeError):
                hin.with_labels(np.zeros(shape, dtype=bool))

    def test_with_labels_rejects_multilabel_rows_when_single(self):
        with pytest.raises(ValidationError):
            make_hin().with_labels(np.array([[1, 1], [0, 0], [0, 0]], dtype=bool))
        both = np.array([[1, 1], [0, 0], [0, 0]], dtype=bool)
        assert make_hin(multilabel=True).with_labels(both).label_matrix[0].all()

    def test_view_labels_read_only_and_metadata_own_copy(self):
        hin = make_hin()
        view = hin.masked(np.ones(3, dtype=bool))
        with pytest.raises(ValueError):
            view.label_matrix[2, 0] = True
        view.metadata["origin"] = "changed"
        assert hin.metadata["origin"] == "test"

    def test_caller_label_array_stays_writeable_and_detached(self):
        hin = make_hin()
        for make in (
            hin.with_labels,
            lambda a: HIN(hin.tensor, hin.relation_names, hin.features, a, ["a", "b"]),
        ):
            labels = np.zeros((3, 2), dtype=bool)
            labels[0, 1] = True
            derived = make(labels)
            assert labels.flags.writeable
            labels[2, 0] = True
            assert np.array_equal(derived.y, [1, -1, -1])
            assert not derived.label_matrix.flags.writeable

    def test_with_relations_reindexes_relations_only(self):
        hin = make_hin()
        sub = hin.with_relations([1], names=["only"])
        assert sub.relation_index("only") == 0
        assert sub.node_names is hin.node_names
        assert sub.label_matrix is hin.label_matrix
        with pytest.raises(ValidationError):
            sub.relation_index("r1")
        with pytest.raises(ShapeError):
            hin.with_relations([0, 1], names=["x"])
        with pytest.raises(ValidationError):
            hin.with_relations([0, 1], names=["x", "x"])

    def test_derive_checks_what_changes(self):
        hin = make_hin()
        with pytest.raises(ShapeError):  # more relations without names
            hin.derive(tensor=SparseTensor3([], [], [], shape=(3, 3, 3)))
        with pytest.raises(ShapeError):  # nodes added, old tensor kept
            hin.derive(new_node_names=["n3"], label_matrix=np.zeros((4, 2), bool))
        with pytest.raises(ValidationError):
            hin.derive(
                tensor=SparseTensor3([], [], [], shape=(4, 4, 2)),
                features=np.eye(4, 3),
                label_matrix=np.zeros((4, 2), bool),
                new_node_names=["n0"],
            )
        bad = np.eye(3)
        bad[2, 0] = np.nan
        with pytest.raises(ValidationError):
            hin.derive(features=bad)
        # Rows outside ``feature_rows`` were validated before and are
        # not re-read.
        assert hin.derive(features=bad, feature_rows=[0, 1]).features is bad

    def test_derive_appends_nodes_to_a_copied_index(self):
        hin = make_hin()
        grown = hin.derive(
            tensor=SparseTensor3([0], [3], [0], shape=(4, 4, 2)),
            features=np.eye(4, 3),
            label_matrix=np.zeros((4, 2), bool),
            new_node_names=["n3"],
        )
        assert grown.node_names == ("n0", "n1", "n2", "n3")
        assert grown.node_index("n3") == 3
        assert dict(grown.node_positions) == {"n0": 0, "n1": 1, "n2": 2, "n3": 3}
        assert "n3" not in hin.node_positions

    def test_fit_on_view_equals_fit_on_independent_hin(self):
        from repro.core.tmark import TMark
        from repro.datasets import make_dblp

        hin = make_dblp(n_authors=120, seed=0)
        mask = np.zeros(hin.n_nodes, dtype=bool)
        mask[::3] = True
        view = hin.masked(mask)
        independent = HIN(
            SparseTensor3(
                *(np.array(c) for c in hin.tensor.coords),
                np.array(hin.tensor.values),
                shape=hin.tensor.shape,
            ),
            list(hin.relation_names),
            np.array(hin.features_dense()),
            hin.label_matrix & mask[:, None],
            list(hin.label_names),
            node_names=list(hin.node_names),
        )
        fits = [TMark(alpha=0.8, gamma=0.6).fit(g).result_ for g in (view, independent)]
        for attr in ("node_scores", "relation_scores"):
            assert getattr(fits[0], attr).tobytes() == getattr(fits[1], attr).tobytes()

    def test_masked_view_retains_about_its_label_matrix(self):
        import tracemalloc

        n, q = 10_000, 8
        rng = np.random.default_rng(0)
        labels = np.zeros((n, q), dtype=bool)
        labels[np.arange(n), rng.integers(0, q, n)] = True
        src = rng.integers(0, n, 3 * n)
        hin = HIN(
            SparseTensor3(rng.integers(0, n, 3 * n), src, src % 2, shape=(n, n, 2)),
            ["r0", "r1"],
            rng.random((n, 16)),
            labels,
            [f"c{c}" for c in range(q)],
        )
        mask = rng.random(n) < 0.1
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            view = hin.masked(mask)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert view.label_matrix.nbytes == n * q
        # The label matrix (80 KB) plus a small constant; a view that
        # rebuilt every name, set and index kept ~640 KB.
        assert retained <= 90_000, retained
