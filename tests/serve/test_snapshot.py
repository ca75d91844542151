"""Tests for the immutable serving snapshot."""

import numpy as np
import pytest

from repro.core.tmark import TMark
from repro.datasets import make_worked_example
from repro.errors import ValidationError
from repro.serve import Snapshot
from repro.stream import StreamingSession


@pytest.fixture(scope="module")
def session():
    s = StreamingSession(
        make_worked_example(), TMark(update_labels=False)
    )
    s.fit()
    return s


@pytest.fixture(scope="module")
def snapshot(session):
    return Snapshot.from_session(session, version=3)


class TestConstruction:
    def test_from_session_carries_names_and_version(self, session, snapshot):
        assert snapshot.version == 3
        assert snapshot.node_names == session.hin.node_names
        assert snapshot.label_names == session.hin.label_names
        assert snapshot.relation_names == session.hin.relation_names
        assert snapshot.n_nodes == session.hin.n_nodes

    def test_arrays_are_read_only_copies(self, session, snapshot):
        assert not snapshot.node_scores.flags.writeable
        assert not snapshot.relation_scores.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            snapshot.node_scores[0, 0] = 1.0
        # And they are copies: the session's live arrays stay untouched.
        assert snapshot.node_scores is not session.result.node_scores

    def test_labels_are_argmax_precomputed(self, session, snapshot):
        argmax = np.argmax(session.result.node_scores, axis=1)
        expected = tuple(session.hin.label_names[c] for c in argmax)
        assert snapshot.labels == expected

    def test_from_result_requires_node_names(self, session):
        from dataclasses import replace

        anonymous = replace(session.result, node_names=None)
        with pytest.raises(ValidationError, match="node_names"):
            Snapshot.from_result(anonymous)

    def test_unfitted_session_rejected(self):
        fresh = StreamingSession(make_worked_example())
        with pytest.raises(ValidationError, match="no fitted result"):
            Snapshot.from_session(fresh)

    def test_healthy_fit_is_ready(self, snapshot):
        assert snapshot.worst_health == "healthy"
        assert snapshot.ready
        assert set(snapshot.health) == set(snapshot.label_names)


class TestClassify:
    def test_scores_and_argmax_match_result(self, session, snapshot):
        name = session.hin.node_names[0]
        [entry] = snapshot.classify([name])
        row = session.result.node_scores[0]
        assert entry["node"] == name
        assert entry["label"] == snapshot.labels[0]
        for c, label in enumerate(snapshot.label_names):
            assert entry["scores"][label] == pytest.approx(row[c])
        assert sum(entry["confidence"].values()) == pytest.approx(1.0)

    def test_batch_preserves_order(self, snapshot):
        names = list(snapshot.node_names[::-1])
        results = snapshot.classify(names)
        assert [r["node"] for r in results] == names

    def test_unknown_node_named_in_error(self, snapshot):
        with pytest.raises(ValidationError, match="ghost"):
            snapshot.classify(["ghost"])


def _classify_per_row(snapshot, names):
    """Reference: one row at a time, numpy scalars converted per element."""
    results = []
    for name in names:
        idx = snapshot._node_index[name]
        row = snapshot.node_scores[idx]
        total = float(row.sum())
        confidence = row / total if total > 0.0 else np.full_like(row, 1.0 / row.size)
        results.append(
            {
                "node": name,
                "label": snapshot.labels[idx],
                "scores": {
                    label: float(row[c]) for c, label in enumerate(snapshot.label_names)
                },
                "confidence": {
                    label: float(confidence[c])
                    for c, label in enumerate(snapshot.label_names)
                },
            }
        )
    return results


class TestClassifyBytes:
    @pytest.mark.parametrize("q", [1, 3, 8, 13])
    def test_reply_bytes_equal_per_row_reference(self, q):
        import json

        rng = np.random.default_rng(q)
        n = 300
        scores = rng.random((n, q)) ** 3
        scores[7] = 0.0  # an all-zero row takes the uniform confidence
        scores /= scores.sum(axis=0)
        scores.setflags(write=False)
        names = tuple(f"v{i}" for i in range(n))
        snapshot = Snapshot(
            version=0,
            node_names=names,
            label_names=tuple(f"c{c}" for c in range(q)),
            relation_names=("r",),
            node_scores=scores,
            relation_scores=np.ones((1, q)),
            labels=tuple(f"c{c}" for c in np.argmax(scores, axis=1)),
            _node_index={name: i for i, name in enumerate(names)},
        )
        request = [names[i] for i in rng.permutation(n)[:128]] + ["v7", "v7"]
        for asked in (request, list(names), []):
            got = json.dumps(snapshot.classify(asked)).encode()
            want = json.dumps(_classify_per_row(snapshot, asked)).encode()
            assert got == want

    def test_from_session_reads_the_graph_index(self, session):
        from types import MappingProxyType

        snapshot = Snapshot.from_session(session)
        assert isinstance(snapshot._node_index, MappingProxyType)
        assert dict(snapshot._node_index) == dict(session.hin.node_positions)


class TestRankings:
    def test_topk_matches_full_argsort(self, snapshot):
        for label in snapshot.label_names:
            c = snapshot.label_names.index(label)
            order = np.argsort(-snapshot.node_scores[:, c], kind="stable")
            expected = [snapshot.node_names[i] for i in order[:3]]
            assert [e["node"] for e in snapshot.topk(label, 3)] == expected

    def test_topk_beyond_cache_falls_back(self, snapshot):
        full = snapshot.topk(0, snapshot.n_nodes)
        assert len(full) == snapshot.n_nodes
        scores = [e["score"] for e in full]
        assert scores == sorted(scores, reverse=True)

    def test_topk_validates_inputs(self, snapshot):
        with pytest.raises(ValidationError, match="unknown label"):
            snapshot.topk("nope", 2)
        with pytest.raises(ValidationError, match="k must be"):
            snapshot.topk(0, 0)

    def test_relations_ranked_descending(self, snapshot):
        ranked = snapshot.relations(snapshot.label_names[0])
        weights = [e["weight"] for e in ranked]
        assert weights == sorted(weights, reverse=True)
        assert {e["relation"] for e in ranked} == set(snapshot.relation_names)
        assert sum(weights) == pytest.approx(1.0)
