"""Tests for the pure endpoint handlers and the shared serving state."""

import pytest

from repro.core.tmark import TMark
from repro.datasets import make_worked_example
from repro.errors import ValidationError
from repro.serve import ServingState, Snapshot
from repro.serve.handlers import (
    handle_classify,
    handle_debug_trace,
    handle_debug_vars,
    handle_healthz,
    handle_metrics,
    handle_relations,
    handle_topk,
    handle_update,
)
from repro.stream import GraphDelta, StreamingSession


@pytest.fixture()
def state():
    session = StreamingSession(make_worked_example(), TMark(update_labels=False))
    session.fit()
    return ServingState(Snapshot.from_session(session))


class TestClassifyEndpoint:
    def test_ok(self, state):
        status, body = handle_classify(state, {"nodes": ["p1", "p2"]})
        assert status == 200
        assert body["snapshot_version"] == 0
        assert [r["node"] for r in body["results"]] == ["p1", "p2"]

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            [],
            {},
            {"nodes": "p1"},
            {"nodes": []},
            {"wrong": ["p1"]},
            {"nodes": [[1]]},
            {"nodes": [{"a": 1}]},
            {"nodes": ["p1", 1]},
        ],
    )
    def test_malformed_payload_is_400(self, state, payload):
        status, body = handle_classify(state, payload)
        assert status == 400 and "error" in body

    def test_unknown_node_is_404(self, state):
        status, body = handle_classify(state, {"nodes": ["p1", "ghost"]})
        assert status == 404
        assert "ghost" in body["error"]

    def test_oversized_batch_is_400(self, state):
        status, _ = handle_classify(state, {"nodes": ["p1"] * 10_001})
        assert status == 400


class TestRankingEndpoints:
    def test_topk_ok(self, state):
        status, body = handle_topk(state, {"label": "DM", "k": "2"})
        assert status == 200
        assert body["k"] == 2 and len(body["results"]) == 2

    def test_topk_missing_label_is_400(self, state):
        assert handle_topk(state, {})[0] == 400

    def test_topk_unknown_label_is_404(self, state):
        assert handle_topk(state, {"label": "nope"})[0] == 404

    def test_topk_bad_k_is_400(self, state):
        assert handle_topk(state, {"label": "DM", "k": "many"})[0] == 400
        assert handle_topk(state, {"label": "DM", "k": "0"})[0] == 400

    def test_relations_ok(self, state):
        status, body = handle_relations(state, {"label": "CV"})
        assert status == 200
        assert len(body["relations"]) == 3

    def test_relations_missing_label_is_400(self, state):
        assert handle_relations(state, {})[0] == 400


class TestHealthAndMetrics:
    def test_healthy_snapshot_is_ready(self, state):
        status, body = handle_healthz(state)
        assert status == 200
        assert body["status"] == "ready"
        assert body["worst_health"] == "healthy"

    def test_unhealthy_snapshot_is_503(self, state):
        from dataclasses import replace

        sick = replace(
            state.snapshot,
            health={**state.snapshot.health, "DM": "not_converged"},
        )
        state.swap(sick)
        status, body = handle_healthz(state)
        assert status == 503
        assert body["status"] == "unhealthy"
        assert body["worst_health"] == "not_converged"

    def test_metrics_exposes_registry(self, state):
        state.observe_request("/classify", 0.001, 200)
        status, text = handle_metrics(state)
        assert status == 200
        assert "tmark_http_classify_requests_total 1" in text
        assert "tmark_snapshot_version" in text


class TestUpdateEndpoint:
    def test_valid_deltas_are_enqueued(self, state):
        seen = []
        state.enqueue_update = lambda deltas: seen.append(deltas) or 1
        payload = {"deltas": [GraphDelta.set_label("p1", ["CV"]).to_dict()]}
        status, body = handle_update(state, payload)
        assert status == 202
        assert body["accepted"] == 1 and body["ticket"] == 1
        assert len(seen) == 1 and seen[0][0].op == "set_label"

    def test_no_queue_hook_is_503(self, state):
        state.enqueue_update = None
        assert handle_update(state, {"deltas": [{"op": "set_label"}]})[0] == 503

    @pytest.mark.parametrize(
        "payload",
        [{}, {"deltas": []}, {"deltas": "x"}, {"deltas": [{"op": "invent"}]}],
    )
    def test_malformed_payload_is_400(self, state, payload):
        state.enqueue_update = lambda deltas: 1
        assert handle_update(state, payload)[0] == 400


class TestServingState:
    def test_swap_installs_new_reference_and_metrics(self, state):
        from dataclasses import replace

        old = state.snapshot
        new = replace(old, version=old.version + 1)
        state.swap(new, build_seconds=0.5)
        assert state.snapshot is new
        assert state.registry.get("tmark_snapshot_version").value == 1.0
        assert state.registry.get("tmark_snapshot_swaps_total").value == 1.0

    def test_rejects_non_snapshot(self):
        with pytest.raises(ValidationError, match="Snapshot"):
            ServingState("nope")


class TestStalenessReporting:
    def test_healthz_carries_staleness_fields(self, state):
        _, body = handle_healthz(state)
        assert body["snapshot_age_seconds"] >= 0.0
        assert body["last_reconverge_seconds"] is None

    def test_swap_resets_age_and_records_reconverge(self, state):
        from dataclasses import replace

        before = state.last_swap
        new = replace(state.snapshot, version=1)
        state.swap(new, build_seconds=0.1, reconverge_seconds=0.5)
        assert state.last_swap >= before
        _, body = handle_healthz(state)
        assert body["last_reconverge_seconds"] == 0.5

    def test_swap_without_reconverge_keeps_last_value(self, state):
        from dataclasses import replace

        state.swap(replace(state.snapshot, version=1), reconverge_seconds=0.5)
        state.swap(replace(state.snapshot, version=2))
        assert state.last_reconverge_seconds == 0.5


class TestDebugTrace:
    def test_dumps_the_flight_ring(self, state):
        state.observe_request("/classify", 0.001, 200, request_id="aa")
        status, body = handle_debug_trace(state, {})
        assert status == 200
        assert body["capacity"] == state.flight.capacity
        assert body["total_events"] == body["n_events"] == 1
        (event,) = body["events"]
        assert event["event"] == "http_request"
        assert event["request_id"] == "aa"

    def test_last_parameter_takes_the_tail(self, state):
        for index in range(5):
            state.observe_request(f"/e{index}", 0.001, 200)
        status, body = handle_debug_trace(state, {"last": "2"})
        assert status == 200
        assert body["n_events"] == 2
        assert body["total_events"] == 5
        assert [e["endpoint"] for e in body["events"]] == ["/e3", "/e4"]

    @pytest.mark.parametrize("last", ["x", "-1", "1.5"])
    def test_bad_last_is_400(self, state, last):
        status, body = handle_debug_trace(state, {"last": last})
        assert status == 400 and "error" in body


class TestDebugVars:
    def test_carries_process_and_serving_stats(self, state):
        status, body = handle_debug_vars(state)
        assert status == 200
        for key in (
            "pid",
            "rss_bytes",
            "cpu_user_seconds",
            "gc_collections",
            "n_threads",
            "uptime_seconds",
            "snapshot_version",
            "snapshot_age_seconds",
            "last_reconverge_seconds",
            "n_nodes",
            "flight_capacity",
            "flight_total_events",
        ):
            assert key in body, key
        assert body["snapshot_version"] == 0
        assert body["flight_capacity"] == state.flight.capacity


class TestSlowRequestLog:
    def test_slow_request_logged_and_counted(self, capsys):
        session = StreamingSession(
            make_worked_example(), TMark(update_labels=False)
        )
        session.fit()
        state = ServingState(
            Snapshot.from_session(session), slow_request_seconds=0.01
        )
        state.observe_request("/classify", 0.5, 200, request_id="abcd")
        err = capsys.readouterr().err
        assert "[slow-request]" in err
        assert "/classify" in err
        assert "abcd" in err
        assert state.registry.get("tmark_slow_requests_total").value == 1.0

    def test_fast_request_not_logged(self, state, capsys):
        state.observe_request("/classify", 0.0001, 200)
        assert "[slow-request]" not in capsys.readouterr().err

    def test_none_disables_the_log(self, capsys):
        session = StreamingSession(
            make_worked_example(), TMark(update_labels=False)
        )
        session.fit()
        state = ServingState(
            Snapshot.from_session(session), slow_request_seconds=None
        )
        state.observe_request("/classify", 99.0, 200)
        assert "[slow-request]" not in capsys.readouterr().err

    def test_threshold_validated(self):
        session = StreamingSession(
            make_worked_example(), TMark(update_labels=False)
        )
        session.fit()
        with pytest.raises(ValidationError, match="slow_request_seconds"):
            ServingState(
                Snapshot.from_session(session), slow_request_seconds=0.0
            )


class TestRequestTelemetry:
    def test_requests_land_in_ring_and_registry(self, state):
        state.observe_request("/classify", 0.002, 200, request_id="ff")
        assert state.registry.get(
            "tmark_http_classify_requests_total"
        ).value == 1.0
        (event,) = state.flight.events()
        assert event["event"] == "http_request"
        assert event["seconds"] == 0.002
        assert event["status"] == 200
