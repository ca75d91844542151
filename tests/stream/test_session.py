"""Tests for StreamingSession: warm reconvergence over an evolving HIN."""

import numpy as np
import pytest

from repro.core.persistence import load_result, save_result
from repro.core.tmark import TMark
from repro.errors import ValidationError
from repro.obs import ListRecorder, registry_from_events, summarize_trace
from repro.stream import (
    GraphDelta,
    StreamingSession,
    synthetic_delta_log,
)
from tests.conftest import small_labeled_hin


def make_session(seed=3, **model_kwargs):
    hin = small_labeled_hin(seed=seed, n=24, q=3, m=2)
    model_kwargs.setdefault("update_labels", False)
    return StreamingSession(hin, TMark(**model_kwargs))


class TestLifecycle:
    def test_fit_then_apply_is_warm(self):
        session = make_session()
        first = session.fit()
        assert first.node_names == session.hin.node_names
        update = session.apply([GraphDelta.set_label("v3", ["c1"])])
        assert update.warm
        assert update.converged
        assert update.n_deltas == 1
        assert update.op_counts == {"set_label": 1}
        assert session.result is not first

    def test_apply_before_fit_is_cold(self):
        session = make_session()
        update = session.apply([GraphDelta.add_link("v0", "v5", "r1")])
        assert not update.warm
        assert session.result is not None

    def test_new_nodes_grow_scores(self):
        session = make_session()
        session.fit()
        update = session.apply(
            [
                GraphDelta.add_node("x", features=[0.2] * 5, labels=["c0"]),
                GraphDelta.add_link("x", "v1", "r0"),
            ]
        )
        assert update.n_new_nodes == 1
        assert update.warm
        assert session.result.node_scores.shape[0] == session.hin.n_nodes
        assert session.result.node_names[-1] == "x"

    def test_replay_returns_one_update_per_batch(self):
        session = make_session()
        session.fit()
        log = synthetic_delta_log(session.hin, 30, batch_size=10, seed=8)
        updates = session.replay(log)
        assert len(updates) == log.n_batches
        assert [u.batch_index for u in updates] == list(range(len(updates)))
        assert all(u.warm for u in updates)

    def test_replay_rejects_non_log(self):
        session = make_session()
        with pytest.raises(ValidationError):
            session.replay([GraphDelta.set_label("v0", ["c0"])])

    def test_rejects_non_model(self):
        with pytest.raises(ValidationError):
            StreamingSession(small_labeled_hin(), model="tmark")


class TestReconvergence:
    def test_warm_result_matches_cold_fit(self):
        # update_labels=False makes the chain a contraction with a
        # unique fixed point: warm and cold fits must agree on it.
        session = make_session(seed=5)
        session.fit()
        log = synthetic_delta_log(session.hin, 40, batch_size=10, seed=21)
        session.replay(log)
        cold = TMark(update_labels=False).fit(session.hin)
        np.testing.assert_allclose(
            session.result.node_scores,
            cold.result_.node_scores,
            atol=1e-6,
        )
        assert np.array_equal(
            np.argmax(session.result.node_scores, axis=1),
            np.argmax(cold.result_.node_scores, axis=1),
        )

    def test_noop_batch_reconverges_immediately(self):
        # Relabelling a node with its current labels changes nothing:
        # the warm chains start at the fixed point and stop at once.
        session = make_session()
        session.fit()
        hin = session.hin
        labels = [
            hin.label_names[c] for c in np.flatnonzero(hin.label_matrix[0])
        ]
        update = session.apply([GraphDelta.set_label("v0", labels)])
        assert update.warm
        assert update.iterations <= 2


class TestSolverThreading:
    def test_fit_with_solver_matches_plain(self):
        plain = make_session(seed=6, tol=1e-10)
        accel = make_session(seed=6, tol=1e-10, solver="anderson")
        a = plain.fit()
        b = accel.fit()
        np.testing.assert_allclose(b.node_scores, a.node_scores, atol=1e-6)
        assert np.array_equal(
            np.argmax(b.node_scores, axis=1),
            np.argmax(a.node_scores, axis=1),
        )

    def test_apply_with_solver_reconverges(self):
        recorder = ListRecorder()
        session = make_session(seed=6, solver="anderson")
        session.fit()
        update = session.apply(
            [GraphDelta.set_label("v3", ["c1"])], recorder=recorder
        )
        assert update.warm
        assert update.converged
        # The refit runs under the model's solver.
        (fit_event,) = recorder.events_of("fit")
        assert fit_event["solver"] == "anderson"

    @pytest.mark.parametrize(
        "method",
        [StreamingSession.fit, StreamingSession.apply, StreamingSession.replay],
        ids=lambda f: f.__name__,
    )
    def test_session_methods_take_no_solver(self, method):
        import inspect

        parameters = inspect.signature(method).parameters
        assert not {"solver", "shards", "workers", "refit"} & set(parameters)


class TestObservability:
    def test_events_and_counters(self):
        recorder = ListRecorder()
        session = make_session()
        session.fit(recorder=recorder)
        session.apply(
            [
                GraphDelta.add_link("v0", "v7", "r1"),
                GraphDelta.set_label("v2", ["c2"]),
            ],
            recorder=recorder,
        )
        (apply_event,) = recorder.events_of("delta_apply")
        assert apply_event["n_deltas"] == 2
        assert apply_event["op_counts"] == {"add_link": 1, "set_label": 1}
        (patch_event,) = recorder.events_of("operator_patch")
        assert patch_event["touched_columns"] == 2
        (reconverge_event,) = recorder.events_of("reconverge")
        assert reconverge_event["warm"]
        assert reconverge_event["iterations"] >= 1
        registry = registry_from_events(recorder.events)
        assert registry.get("tmark_delta_batches_total").value == 1
        assert registry.get("tmark_reconverges_total").value == 1

    def test_trace_summary_accounts_streaming(self):
        recorder = ListRecorder()
        session = make_session()
        session.fit(recorder=recorder)
        session.apply(
            [GraphDelta.add_link("v0", "v7", "r1")], recorder=recorder
        )
        summary = summarize_trace(recorder.events)
        assert summary.n_delta_batches == 1
        assert summary.n_deltas == 1
        assert summary.reconverge_iterations >= 1
        assert summary.patch_seconds >= 0.0

    def test_disabled_recorder_emits_nothing(self):
        recorder = ListRecorder(enabled=False)
        session = make_session()
        session.fit(recorder=recorder)
        session.apply(
            [GraphDelta.set_label("v1", ["c0"])], recorder=recorder
        )
        assert recorder.events == []


class TestUpdateHealth:
    def test_update_carries_per_class_verdicts(self):
        session = make_session()
        session.fit()
        update = session.apply([GraphDelta.set_label("v3", ["c1"])])
        assert set(update.health) == set(session.hin.label_names)
        assert all(
            status
            in ("healthy", "not_converged", "stalled", "oscillating", "diverging")
            for status in update.health.values()
        )
        assert update.worst_health == "healthy"

    def test_reconverge_event_carries_health(self):
        recorder = ListRecorder()
        session = make_session()
        session.fit(recorder=recorder)
        session.apply(
            [GraphDelta.add_link("v0", "v7", "r1")], recorder=recorder
        )
        (event,) = recorder.events_of("reconverge")
        assert set(event["health"]) == set(session.hin.label_names)
        assert event["worst_health"] == "healthy"


class TestResume:
    def test_round_trip_through_persistence(self, tmp_path):
        session = make_session(seed=9)
        session.fit()
        session.apply([GraphDelta.add_link("v0", "v9", "r1")])
        path = save_result(session.result, tmp_path / "state.npz")
        loaded = load_result(path)
        resumed = StreamingSession.resume(
            session.hin, loaded, TMark(update_labels=False)
        )
        update = resumed.apply([GraphDelta.set_label("v4", ["c1"])])
        assert update.warm
        np.testing.assert_allclose(
            resumed.result.node_scores.sum(axis=0),
            np.ones(resumed.result.node_scores.shape[1]),
        )

    def test_resume_onto_grown_graph(self):
        # The saved result predates two appended nodes: node_names is a
        # strict prefix, and the first warm refit pads the new rows.
        session = make_session(seed=9)
        saved = session.fit()
        session.apply(
            [
                GraphDelta.add_node("x", features=[0.1] * 5),
                GraphDelta.add_link("x", "v0", "r0"),
            ]
        )
        resumed = StreamingSession.resume(
            session.hin, saved, TMark(update_labels=False)
        )
        update = resumed.apply([GraphDelta.set_label("x", ["c0"])])
        assert update.warm
        assert resumed.result.node_scores.shape[0] == resumed.hin.n_nodes

    def test_resume_requires_node_names(self):
        session = make_session()
        result = session.fit()
        stripped = type(result)(
            node_scores=result.node_scores,
            relation_scores=result.relation_scores,
            histories=result.histories,
            label_names=result.label_names,
            relation_names=result.relation_names,
            node_names=None,
        )
        with pytest.raises(ValidationError):
            StreamingSession.resume(session.hin, stripped)

    def test_resume_rejects_misaligned_nodes(self):
        session = make_session(seed=1)
        result = session.fit()
        other = small_labeled_hin(seed=1, n=10, q=3, m=2)
        with pytest.raises(ValidationError):
            StreamingSession.resume(other, result)

    def test_resume_rejects_label_mismatch(self):
        session = make_session(seed=1)
        result = session.fit()
        relabeled = small_labeled_hin(seed=1, n=24, q=4, m=2)
        with pytest.raises(ValidationError):
            StreamingSession.resume(relabeled, result)
