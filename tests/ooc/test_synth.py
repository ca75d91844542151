"""Tests for the out-of-core synthetic store generator."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import TMark
from repro.errors import ValidationError
from repro.ooc import GraphStore, fit_from_store, generate_ooc_store


@pytest.fixture
def small_store(tmp_path):
    return generate_ooc_store(
        tmp_path / "store",
        n_nodes=500,
        n_links=900,
        n_relations=2,
        n_labels=3,
        n_features=8,
        labeled_fraction=0.2,
        homophily=0.9,
        seed=5,
    )


class TestGenerator:
    def test_shapes_and_manifest(self, small_store):
        assert small_store.n_nodes == 500
        assert small_store.n_relations == 2
        assert small_store.n_labels == 3
        assert small_store.n_features == 8
        assert small_store.nnz == sum(small_store.relation_nnz)
        assert small_store.metadata["generator"] == "ooc"
        assert small_store.metadata["seed"] == 5

    def test_deterministic(self, tmp_path):
        kwargs = dict(
            n_nodes=200, n_links=300, n_relations=2, n_labels=2,
            n_features=4, seed=9,
        )
        a = generate_ooc_store(tmp_path / "a", **kwargs)
        b = generate_ooc_store(tmp_path / "b", **kwargs)
        assert a.store_fingerprint() == b.store_fingerprint()
        c = generate_ooc_store(tmp_path / "c", **{**kwargs, "seed": 10})
        assert c.store_fingerprint() != a.store_fingerprint()

    def test_csc_arrays_are_canonical(self, small_store):
        for k in range(small_store.n_relations):
            data, indices, indptr = small_store.relation_arrays(k)
            assert indptr[0] == 0 and int(indptr[-1]) == data.size
            assert np.all(np.diff(np.asarray(indptr)) >= 0)
            # Rows sorted within each column, no self-loops, no dupes.
            n = small_store.n_nodes
            coo = sp.csc_matrix((data, indices, indptr), shape=(n, n)).tocoo()
            assert not np.any(coo.row == coo.col)
            flat = coo.col.astype(np.int64) * small_store.n_nodes + coo.row
            assert np.unique(flat).size == flat.size

    def test_ground_truth_saved_and_every_class_occupied(self, small_store):
        truth = np.load(small_store.directory / "ground_truth.npy")
        assert truth.shape == (500,)
        assert set(np.unique(truth)) == {0, 1, 2}
        assert "ground_truth.npy" in small_store.manifest["files"]

    def test_labels_consistent_with_truth(self, small_store):
        truth = np.load(small_store.directory / "ground_truth.npy")
        labels = np.asarray(small_store.label_matrix)
        revealed = labels.any(axis=1)
        # Every class anchored; roughly labeled_fraction revealed.
        assert labels[:3].any(axis=1).all()
        assert 0.1 <= revealed.mean() <= 0.35
        rows = np.flatnonzero(revealed)
        assert np.array_equal(labels[rows].argmax(axis=1), truth[rows])

    def test_open_verify_round_trip(self, small_store):
        reopened = GraphStore.open(small_store.directory, verify=True)
        assert reopened.nnz == small_store.nnz

    def test_homophilous_fit_beats_chance(self, small_store):
        model = fit_from_store(small_store, TMark(alpha=0.6, gamma=0.0, tol=1e-8))
        truth = np.load(small_store.directory / "ground_truth.npy")
        accuracy = float(np.mean(model.predict() == truth))
        assert accuracy > 1.0 / small_store.n_labels + 0.1

    def test_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            generate_ooc_store(tmp_path / "x", n_nodes=0)
        with pytest.raises(ValidationError):
            generate_ooc_store(tmp_path / "x", n_nodes=10, homophily=1.5)
        with pytest.raises(ValidationError, match="feature_noise"):
            generate_ooc_store(tmp_path / "x", n_nodes=10, feature_noise=-1.0)
        with pytest.raises(ValidationError, match="exceeds"):
            generate_ooc_store(tmp_path / "x", n_nodes=2, n_labels=5)
