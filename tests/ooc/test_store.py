"""Tests for the memory-mapped GraphStore (save / open / to_hin)."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro.errors import ValidationError
from repro.hin.builder import HINBuilder
from repro.hin.graph import HIN
from repro.hin.io import load_hin, save_hin
from repro.obs import ListRecorder, registry_from_events, use_recorder
from repro.ooc import MANIFEST_NAME, STORE_FORMAT_VERSION, GraphStore
from repro.tensor.sptensor import SparseTensor3


def sample_hin(sparse_features=False, multilabel=False):
    # Node 2 has no out-links in relation 0 (a dangling column) and the
    # second relation leaves node 0 dangling too.
    tensor = SparseTensor3(
        [1, 2, 0, 2],
        [0, 1, 1, 2],
        [0, 0, 1, 1],
        [1.0, 2.0, 0.5, 1.5],
        shape=(3, 3, 2),
    )
    features = np.arange(6, dtype=float).reshape(3, 2)
    if sparse_features:
        features = sp.csr_matrix(features)
    labels = np.array([[1, 0], [0, 1], [0, 0]], dtype=bool)
    if multilabel:
        labels[0] = [True, True]
    return HIN(
        tensor,
        ["co-author", "citation"],
        features,
        labels,
        ["DM", "CV"],
        node_names=["p1", "p2", "p3"],
        multilabel=multilabel,
        metadata={"dataset": "test", "numbers": [1, 2]},
    )


def assert_hin_identical(a: HIN, b: HIN) -> None:
    assert a.tensor == b.tensor
    assert np.array_equal(a.tensor.values, b.tensor.values)
    fa = a.features.toarray() if sp.issparse(a.features) else np.asarray(a.features)
    fb = b.features.toarray() if sp.issparse(b.features) else np.asarray(b.features)
    assert np.array_equal(fa, fb)
    assert np.array_equal(
        np.asarray(a.label_matrix), np.asarray(b.label_matrix)
    )
    assert a.relation_names == b.relation_names
    assert a.label_names == b.label_names
    assert a.node_names == b.node_names
    assert a.multilabel == b.multilabel
    assert a.metadata == b.metadata


class TestRoundTrip:
    def test_dense_features_bit_identical(self, tmp_path):
        hin = sample_hin()
        store = GraphStore.save(hin, tmp_path / "store")
        assert_hin_identical(store.to_hin(), hin)

    def test_sparse_features(self, tmp_path):
        hin = sample_hin(sparse_features=True)
        store = GraphStore.save(hin, tmp_path / "store")
        rebuilt = store.to_hin()
        assert sp.issparse(rebuilt.features)
        assert_hin_identical(rebuilt, hin)

    def test_multilabel(self, tmp_path):
        hin = sample_hin(multilabel=True)
        store = GraphStore.save(hin, tmp_path / "store")
        rebuilt = store.to_hin()
        assert rebuilt.multilabel
        assert_hin_identical(rebuilt, hin)

    def test_zero_link_relation(self, tmp_path):
        builder = HINBuilder(["a", "b"])
        builder.add_node("u", features=[1.0, 0.0], labels=["a"])
        builder.add_node("v", features=[0.0, 1.0], labels=["b"])
        builder.add_relation("linked")
        builder.add_relation("empty")
        builder.add_link("u", "v", "linked")
        hin = builder.build()
        store = GraphStore.save(hin, tmp_path / "store")
        assert store.relation_nnz == (2, 0)  # builder links are symmetric
        assert_hin_identical(store.to_hin(), hin)

    def test_fully_empty_tensor(self, tmp_path):
        builder = HINBuilder(["a"])
        builder.add_node("u", features=[1.0], labels=["a"])
        builder.add_node("v", features=[0.5])
        builder.add_relation("r")
        hin = builder.build()
        store = GraphStore.save(hin, tmp_path / "store")
        assert store.nnz == 0
        assert_hin_identical(store.to_hin(), hin)

    def test_worked_example(self, tmp_path, worked_example):
        store = GraphStore.save(worked_example, tmp_path / "store")
        assert_hin_identical(store.to_hin(), worked_example)

    def test_reopen_matches(self, tmp_path):
        hin = sample_hin()
        GraphStore.save(hin, tmp_path / "store")
        reopened = GraphStore.open(tmp_path / "store", verify=True)
        assert_hin_identical(reopened.to_hin(), hin)


class TestArchiveEquivalence:
    """save_hin / load_hin and GraphStore agree on the same graph."""

    @pytest.mark.parametrize("sparse_features", [False, True])
    @pytest.mark.parametrize("multilabel", [False, True])
    def test_archive_and_store_round_trips_match(
        self, tmp_path, sparse_features, multilabel
    ):
        hin = sample_hin(sparse_features=sparse_features, multilabel=multilabel)
        from_archive = load_hin(save_hin(hin, tmp_path / "net.npz"))
        from_store = GraphStore.save(hin, tmp_path / "store").to_hin()
        assert_hin_identical(from_archive, from_store)

    def test_store_of_loaded_archive_matches_original(self, tmp_path):
        hin = sample_hin()
        loaded = load_hin(save_hin(hin, tmp_path / "net.npz"))
        store = GraphStore.save(loaded, tmp_path / "store")
        assert_hin_identical(store.to_hin(), hin)


class TestAccessors:
    def test_shape_surface_mirrors_hin(self, tmp_path):
        hin = sample_hin()
        store = GraphStore.save(hin, tmp_path / "store")
        assert store.n_nodes == hin.n_nodes
        assert store.n_relations == hin.n_relations
        assert store.n_labels == hin.n_labels
        assert store.n_features == hin.n_features
        assert store.nnz == hin.tensor.nnz
        assert store.relation_names == hin.relation_names
        assert store.label_names == hin.label_names
        assert store.metadata == hin.metadata

    def test_relation_index_validated(self, tmp_path):
        store = GraphStore.save(sample_hin(), tmp_path / "store")
        with pytest.raises(ValidationError, match="relation index"):
            store.relation_arrays(2)

    def test_node_names_stored(self, tmp_path):
        store = GraphStore.save(sample_hin(), tmp_path / "store")
        assert store.has_stored_node_names
        assert store.node_names() == ("p1", "p2", "p3")

    def test_default_node_names_not_stored(self, tmp_path):
        hin = sample_hin()
        default = HIN(
            hin.tensor,
            hin.relation_names,
            hin.features,
            np.asarray(hin.label_matrix),
            hin.label_names,
        )
        store = GraphStore.save(default, tmp_path / "store")
        assert not store.has_stored_node_names
        assert not (tmp_path / "store" / "node_names.npy").exists()
        assert store.node_names()[1] == "node_1"

    def test_mmap_arrays_are_readonly_views(self, tmp_path):
        store = GraphStore.save(sample_hin(), tmp_path / "store")
        data, _, _ = store.relation_arrays(0)
        assert isinstance(data, np.memmap)
        with pytest.raises((ValueError, OSError)):
            data[0] = 99.0


class TestIntegrity:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ValidationError, match="missing manifest"):
            GraphStore.open(tmp_path / "nowhere")

    def test_corrupt_manifest(self, tmp_path):
        d = tmp_path / "store"
        d.mkdir()
        (d / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
        with pytest.raises(ValidationError, match="corrupt store manifest"):
            GraphStore.open(d)

    def test_version_mismatch(self, tmp_path):
        GraphStore.save(sample_hin(), tmp_path / "store")
        manifest_path = tmp_path / "store" / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        manifest["format_version"] = STORE_FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValidationError, match="format version"):
            GraphStore.open(tmp_path / "store")

    def test_missing_array_file(self, tmp_path):
        GraphStore.save(sample_hin(), tmp_path / "store")
        (tmp_path / "store" / "labels.npy").unlink()
        with pytest.raises(ValidationError, match="missing array file"):
            GraphStore.open(tmp_path / "store")

    def test_fingerprint_mismatch_raises(self, tmp_path):
        GraphStore.save(sample_hin(), tmp_path / "store")
        target = tmp_path / "store" / "rel0.data.npy"
        corrupted = np.load(target)
        corrupted[0] += 1.0
        np.save(target, corrupted)
        # Lazy open ignores content changes; verify=True catches them.
        GraphStore.open(tmp_path / "store")
        with pytest.raises(ValidationError, match="fingerprint mismatch"):
            GraphStore.open(tmp_path / "store", verify=True)

    def test_store_fingerprint_tracks_content(self, tmp_path):
        store_a = GraphStore.save(sample_hin(), tmp_path / "a")
        store_b = GraphStore.save(sample_hin(), tmp_path / "b")
        assert store_a.store_fingerprint() == store_b.store_fingerprint()
        base = sample_hin()
        tensor = base.tensor
        changed = HIN(
            SparseTensor3(
                tensor.coords[0],
                tensor.coords[1],
                tensor.coords[2],
                tensor.values * 2.0,
                shape=tensor.shape,
            ),
            base.relation_names,
            base.features,
            np.asarray(base.label_matrix),
            base.label_names,
            node_names=base.node_names,
        )
        store_c = GraphStore.save(changed, tmp_path / "c")
        assert store_c.store_fingerprint() != store_a.store_fingerprint()

    def test_graph_fingerprint_recorded(self, tmp_path):
        from repro.hin import graph_fingerprint

        hin = sample_hin()
        store = GraphStore.save(hin, tmp_path / "store")
        assert store.manifest["graph_fingerprint"] == graph_fingerprint(hin)

    def test_save_rejects_non_hin(self, tmp_path):
        with pytest.raises(ValidationError, match="expected a HIN"):
            GraphStore.save({"not": "a hin"}, tmp_path / "store")


class TestEvents:
    def test_save_and_open_events(self, tmp_path):
        recorder = ListRecorder()
        with use_recorder(recorder):
            GraphStore.save(sample_hin(), tmp_path / "store")
            GraphStore.open(tmp_path / "store", verify=True)
        saves = recorder.events_of("store_save")
        # save() reopens the store, so one save + two open events.
        opens = recorder.events_of("store_open")
        assert len(saves) == 1 and len(opens) == 2
        assert saves[0]["n_nodes"] == 3
        assert saves[0]["nnz"] == 4
        assert opens[-1]["verified"] is True
        registry = registry_from_events(recorder.events)
        assert registry.get("tmark_store_saves_total").value == 1
        assert registry.get("tmark_store_opens_total").value == 2
