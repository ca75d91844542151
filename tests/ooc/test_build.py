"""Tests for chunked operator construction (bit-identity, cache, W policy)."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.features import feature_transition_matrix
from repro.core.tmark import build_operators
from repro.errors import ValidationError
from repro.hin.graph import HIN
from repro.obs import ListRecorder, registry_from_events, use_recorder
from repro.ooc import GraphStore, build_chunked_operators, generate_ooc_store
from repro.ooc.build import MAX_DENSE_W_NODES, OPERATORS_MANIFEST, load_csr
from repro.tensor.transition import (
    NodeTransitionTensor,
    RelationTransitionTensor,
    RowWalk,
)

from tests.ooc.test_store import sample_hin
from tests.properties.test_tensor_invariants import sparse_relation_tensors


def ondisk_stack(store, prefix: str):
    """The cached ``O`` (``"o"``) or ``R`` (``"r"``) row stack."""
    n, m = store.n_nodes, store.n_relations
    n_blocks = m + 1 if prefix == "r" else m
    return load_csr(store.operators_dir, prefix, n_blocks * n, n)


def ondisk_relation_data(store, prefix: str, k: int) -> np.ndarray:
    """Relation ``k``'s normalised values from the cached stack, in CSC order."""
    n = store.n_nodes
    block = ondisk_stack(store, prefix)[k * n : (k + 1) * n].tocsc()
    block.sort_indices()
    return block.data


def _chunked_builds(recorder) -> float:
    """``tmark_chunked_operator_builds_total`` folded from the recorded events."""
    registry = registry_from_events(recorder.events)
    return registry.get("tmark_chunked_operator_builds_total").value


class TestBitIdentity:
    """The normalised O/R values on disk equal the in-RAM build's, bitwise."""

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 64])
    def test_o_data_matches_inram(self, tmp_path, worked_example, chunk_size):
        store = GraphStore.save(worked_example, tmp_path / "store")
        build_chunked_operators(store, chunk_size=chunk_size, build_w=False)
        inram = build_operators(worked_example)
        for k in range(store.n_relations):
            expected = inram.o_tensor.relation_slice(k).tocsc()
            expected.sort_indices()
            ondisk = ondisk_relation_data(store, "o", k)
            assert np.array_equal(ondisk, expected.data), f"O relation {k}"

    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 64])
    def test_r_data_matches_inram(self, tmp_path, worked_example, chunk_size):
        store = GraphStore.save(worked_example, tmp_path / "store")
        build_chunked_operators(store, chunk_size=chunk_size, build_w=False)
        inram = build_operators(worked_example)
        r_slices = inram.r_tensor.row_blocks(0, store.n_nodes)
        for k in range(store.n_relations):
            expected = r_slices[k].tocsc()
            expected.sort_indices()
            ondisk = ondisk_relation_data(store, "r", k)
            assert np.array_equal(ondisk, expected.data), f"R relation {k}"

    def test_chunk_size_does_not_change_files(self, tmp_path, worked_example):
        digests = []
        for chunk_size in (1, 3, 64):
            store = GraphStore.save(worked_example, tmp_path / f"s{chunk_size}")
            build_chunked_operators(store, chunk_size=chunk_size, build_w=False)
            digests.append(cache_bytes(store))
        assert digests[0] == digests[1] == digests[2]

    def test_dangling_and_pair_counts_match_inram(self, tmp_path, worked_example):
        store = GraphStore.save(worked_example, tmp_path / "store")
        ops = build_chunked_operators(store, build_w=False)
        inram = build_operators(worked_example)
        assert ops.o_tensor.n_dangling == inram.o_tensor.n_dangling
        assert ops.o_tensor.dangling_share == inram.o_tensor.dangling_share
        assert ops.r_tensor.n_linked_pairs == inram.r_tensor.n_linked_pairs
        assert ops.r_tensor.unlinked_share == inram.r_tensor.unlinked_share

    def test_propagation_matches_inram(self, tmp_path, worked_example, rng):
        store = GraphStore.save(worked_example, tmp_path / "store")
        ops = build_chunked_operators(store, chunk_size=2, build_w=False)
        inram = build_operators(worked_example)
        n, m = ops.shape
        X = rng.random((n, 2))
        X /= X.sum(axis=0)
        Z = rng.random((m, 2))
        Z /= Z.sum(axis=0)
        assert np.allclose(
            ops.o_tensor.propagate_many(X, Z),
            inram.o_tensor.propagate_many(X, Z),
        )
        assert np.allclose(
            ops.r_tensor.propagate_many(X, X),
            inram.r_tensor.propagate_many(X, X),
        )

    def test_dense_w_bit_identical(self, tmp_path, worked_example, rng):
        store = GraphStore.save(worked_example, tmp_path / "store")
        ops = build_chunked_operators(store, chunk_size=2)
        expected = feature_transition_matrix(worked_example.features)
        ondisk = np.load(store.operators_dir / "w.npy")
        assert np.array_equal(ondisk, expected)
        X = rng.random((store.n_nodes, 2))
        assert np.allclose(ops.w_matrix @ X, expected @ X)

    def test_topk_w_matches_inram_topk(self, tmp_path, worked_example, rng):
        store = GraphStore.save(worked_example, tmp_path / "store")
        ops = build_chunked_operators(store, similarity_top_k=2, chunk_size=2)
        assert isinstance(ops.w_matrix, RowWalk)
        from repro.core.features import topk_cosine_transition_matrix

        expected = topk_cosine_transition_matrix(worked_example.features, 2)
        X = rng.random((store.n_nodes, 2))
        assert (ops.w_matrix @ X).tobytes() == (expected @ X).tobytes()


class TestZeroLinkRelations:
    def test_empty_relation_builds_and_propagates(self, tmp_path):
        from repro.hin.builder import HINBuilder

        builder = HINBuilder(["a", "b"])
        builder.add_node("u", features=[1.0, 0.0], labels=["a"])
        builder.add_node("v", features=[0.0, 1.0], labels=["b"])
        builder.add_node("w", features=[0.5, 0.5])
        builder.add_relation("linked")
        builder.add_relation("empty")
        builder.add_link("u", "v", "linked")
        hin = builder.build()
        store = GraphStore.save(hin, tmp_path / "store")
        ops = build_chunked_operators(store, chunk_size=1, build_w=False)
        inram = build_operators(hin)
        n = hin.n_nodes
        X = np.full((n, 2), 1.0 / n)
        Z = np.full((2, 2), 0.5)
        assert np.allclose(
            ops.o_tensor.propagate_many(X, Z),
            inram.o_tensor.propagate_many(X, Z),
        )
        assert np.allclose(
            ops.r_tensor.propagate_many(X, X),
            inram.r_tensor.propagate_many(X, X),
        )


class TestCache:
    def test_cache_reused(self, tmp_path):
        store = GraphStore.save(sample_hin(), tmp_path / "store")
        recorder = ListRecorder()
        with use_recorder(recorder):
            build_chunked_operators(store, build_w=False)
            first_chunks = len(recorder.events_of("operator_build"))
            build_chunked_operators(store, build_w=False)
        assert first_chunks > 0
        assert len(recorder.events_of("operator_build")) == first_chunks
        assert _chunked_builds(recorder) == 1

    def test_rebuild_forces_fresh_build(self, tmp_path):
        store = GraphStore.save(sample_hin(), tmp_path / "store")
        recorder = ListRecorder()
        with use_recorder(recorder):
            build_chunked_operators(store, build_w=False)
            build_chunked_operators(store, build_w=False, rebuild=True)
        assert _chunked_builds(recorder) == 2

    def test_stale_cache_detected(self, tmp_path):
        GraphStore.save(sample_hin(), tmp_path / "store")
        store = GraphStore.open(tmp_path / "store")
        build_chunked_operators(store, build_w=False)
        # Re-save changes file content -> fingerprints change -> rebuild.
        changed = sample_hin(multilabel=True)
        changed_store = GraphStore.save(changed, tmp_path / "store")
        recorder = ListRecorder()
        with use_recorder(recorder):
            build_chunked_operators(changed_store, build_w=False)
        assert _chunked_builds(recorder) == 1

    def test_w_settings_invalidate_cache_for_w_fits(self, tmp_path):
        store = GraphStore.save(sample_hin(), tmp_path / "store")
        build_chunked_operators(store, similarity_top_k=2)
        recorder = ListRecorder()
        with use_recorder(recorder):
            build_chunked_operators(store, similarity_top_k=3)
        assert _chunked_builds(recorder) == 1

    def test_no_w_cache_upgraded_when_w_needed(self, tmp_path):
        store = GraphStore.save(sample_hin(), tmp_path / "store")
        build_chunked_operators(store, build_w=False)
        ops = build_chunked_operators(store)  # now W is required
        assert ops.w_matrix is not None
        manifest_path = store.operators_dir / OPERATORS_MANIFEST
        assert manifest_path.exists()


class TestWPolicy:
    def test_dense_w_refused_beyond_limit(self, tmp_path):
        store = generate_ooc_store(
            tmp_path / "big",
            n_nodes=MAX_DENSE_W_NODES + 1,
            n_links=64,
            n_relations=1,
            n_labels=2,
            n_features=4,
            seed=3,
        )
        with pytest.raises(ValidationError, match="similarity_top_k"):
            build_chunked_operators(store)

    def test_topk_requires_cosine(self, tmp_path):
        store = GraphStore.save(sample_hin(), tmp_path / "store")
        with pytest.raises(ValidationError, match="cosine"):
            build_chunked_operators(
                store, similarity_top_k=2, similarity_metric="rbf"
            )


class TestValidation:
    def test_rejects_non_store(self):
        with pytest.raises(ValidationError, match="expected a GraphStore"):
            build_chunked_operators(sample_hin())

    @pytest.mark.parametrize("bad", [0, -1, 2.5, True])
    def test_rejects_bad_chunk_size(self, tmp_path, bad):
        store = GraphStore.save(sample_hin(), tmp_path / "store")
        with pytest.raises(ValidationError):
            build_chunked_operators(store, chunk_size=bad)

    def test_rejects_bad_metric(self, tmp_path):
        store = GraphStore.save(sample_hin(), tmp_path / "store")
        with pytest.raises(ValidationError, match="similarity_metric"):
            build_chunked_operators(store, similarity_metric="euclid")


class TestEvents:
    def test_per_chunk_operator_build_events(self, tmp_path, worked_example):
        store = GraphStore.save(worked_example, tmp_path / "store")
        recorder = ListRecorder()
        with use_recorder(recorder):
            build_chunked_operators(store, chunk_size=2, build_w=False)
        events = recorder.events_of("operator_build")
        o_events = [e for e in events if e["operator"] == "O"]
        r_events = [e for e in events if e["operator"] == "R"]
        # 4 nodes / chunk 2 -> 2 chunks per O relation, 2 R chunks.
        assert len(o_events) == 2 * store.n_relations
        assert len(r_events) == 2
        for event in events:
            assert event["transition_seconds"] >= 0.0
            assert event["feature_seconds"] == 0.0
            assert event["columns"] > 0

    def test_w_event_counts_feature_seconds(self, tmp_path, worked_example):
        store = GraphStore.save(worked_example, tmp_path / "store")
        recorder = ListRecorder()
        with use_recorder(recorder):
            build_chunked_operators(store, chunk_size=2)
        w_events = [
            e
            for e in recorder.events_of("operator_build")
            if e["operator"] == "W"
        ]
        assert len(w_events) == 1
        assert w_events[0]["feature_seconds"] >= 0.0
        assert w_events[0]["transition_seconds"] == 0.0


class TestRParity:
    """Both ``R`` builds run the same fibre kernel, so they agree bitwise."""

    @pytest.mark.parametrize("chunk_size", [1, 7, 64])
    def test_r_slices_and_pairs_match_inram(self, tmp_path, chunk_size):
        store = generate_ooc_store(
            tmp_path / "store",
            n_nodes=40,
            n_links=600,
            n_relations=3,
            n_labels=2,
            n_features=4,
            seed=11,
        )
        build_chunked_operators(store, chunk_size=chunk_size, build_w=False)
        tensor = store.to_hin().tensor
        i, j, _ = tensor.coords
        fibre_lengths = np.bincount(j * store.n_nodes + i)
        assert fibre_lengths.max() > 1  # some pair is linked by several relations
        inram = RelationTransitionTensor(tensor)
        r_slices = inram.row_blocks(0, store.n_nodes)
        for k in range(store.n_relations):
            expected = r_slices[k].tocsc()
            expected.sort_indices()
            _, indices, indptr = store.relation_arrays(k)
            assert np.array_equal(indices, expected.indices), f"R relation {k}"
            assert np.array_equal(indptr, expected.indptr), f"R relation {k}"
            ondisk = ondisk_relation_data(store, "r", k)
            assert ondisk.tobytes() == expected.data.tobytes(), f"R relation {k}"
        n, m = store.n_nodes, store.n_relations
        pairs = ondisk_stack(store, "r")[m * n :]
        expected_pairs = inram.pair_rows(0, n)
        assert np.array_equal(pairs.indices, expected_pairs.indices)
        assert np.array_equal(pairs.indptr, expected_pairs.indptr)
        assert np.array_equal(pairs.data, expected_pairs.data)


def cache_bytes(store) -> dict:
    """Every ``.npy`` file of a store's operator cache, by name."""
    return {
        path.name: path.read_bytes()
        for path in sorted(store.operators_dir.glob("*.npy"))
    }


def tensor_hin(tensor) -> HIN:
    """A minimal HIN around an adjacency tensor (one feature, one class)."""
    n, _, m = tensor.shape
    return HIN(
        tensor,
        [f"rel{k}" for k in range(m)],
        np.ones((n, 1)),
        np.zeros((n, 1), dtype=bool),
        ["a"],
    )


class TestStackProperty:
    """The cache holds the in-RAM ``_stacked`` arrays, whatever the chunk."""

    @settings(max_examples=25, deadline=None)
    @given(sparse_relation_tensors())
    def test_cached_stacks_equal_inram_bytewise(self, tensor):
        hin = tensor_hin(tensor)
        n = hin.n_nodes
        expected = {
            "o": NodeTransitionTensor(hin.tensor)._stacked,
            "r": RelationTransitionTensor(hin.tensor)._stacked,
        }
        caches = []
        for chunk_size in (1, 7, n):
            with tempfile.TemporaryDirectory() as tmp:
                store = GraphStore.save(hin, Path(tmp) / "store")
                build_chunked_operators(store, chunk_size=chunk_size, build_w=False)
                for prefix, stack in expected.items():
                    for name in ("indptr", "indices", "data"):
                        got = np.load(store.operators_dir / f"{prefix}.{name}.npy")
                        want = getattr(stack, name)
                        assert got.dtype == want.dtype, (prefix, name)
                        assert got.tobytes() == want.tobytes(), (prefix, name)
                caches.append(cache_bytes(store))
        assert caches[0] == caches[1] == caches[2]
