"""The daemon's reply bytes and per-request timing.

Every JSON reply is encoded by :func:`repro.serve.daemon.encode_json`.
Its bytes are compact and differ from ``json.dumps``'s, but a client
that parses them must get exactly what it would have parsed from
``json.dumps`` of the handler's body: the same keys, the same strings
and bit-identical doubles.  Each served request's ``http_request`` event
splits its time into parse, handle and encode.
"""

import http.client
import json
import math

import numpy as np
import pytest

from repro.core.tmark import TMark
from repro.datasets import make_worked_example
from repro.serve import PredictionDaemon
from repro.serve import daemon as daemon_module
from repro.serve.daemon import encode_json
from repro.stream import GraphDelta, StreamingSession

NODES = ["p1", "p2", "p3", "p4"]
UPDATE = {"deltas": [GraphDelta.set_label("p2", ["CV"]).to_dict()]}

#: ``(method, path, payload, status)`` of one request per endpoint and
#: per error status the daemon answers.
REQUESTS = [
    ("POST", "/classify", {"nodes": NODES}, 200),
    ("GET", "/topk?label=DM&k=4", None, 200),
    ("GET", "/relations?label=CV", None, 200),
    ("GET", "/healthz", None, 200),
    ("GET", "/metrics", None, 200),
    ("GET", "/debug/vars", None, 200),
    ("GET", "/debug/trace", None, 200),
    ("POST", "/update", UPDATE, 202),
    ("POST", "/classify", {"nodes": "p1"}, 400),
    ("POST", "/classify", b"not json", 400),
    ("GET", "/topk?label=DM&k=x", None, 400),
    ("POST", "/classify", {"nodes": ["nobody"]}, 404),
    ("GET", "/relations?label=nope", None, 404),
    ("GET", "/nope", None, 404),
]
IDS = [f"{method} {path} {status}" for method, path, _, status in REQUESTS]


@pytest.fixture()
def daemon():
    session = StreamingSession(make_worked_example(), TMark(update_labels=False))
    session.fit()
    d = PredictionDaemon(session).start()
    yield d
    d.stop()


def _exchange(daemon, method, path, payload=None):
    """One request on a fresh connection: ``(status, headers, body bytes)``."""
    connection = http.client.HTTPConnection(daemon.host, daemon.port, timeout=10)
    try:
        if payload is not None and not isinstance(payload, bytes):
            payload = json.dumps(payload).encode()
        connection.request(method, path, body=payload)
        response = connection.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        connection.close()


def _hexed(value):
    """``value`` with every float replaced by its ``float.hex()``."""
    if isinstance(value, dict):
        return {key: _hexed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_hexed(item) for item in value]
    if isinstance(value, float):
        return value.hex()
    return value


@pytest.fixture()
def encoded(monkeypatch):
    """Every ``(body, bytes)`` pair the daemon's encoder produces."""
    pairs = []

    def spy(body):
        raw = encode_json(body)
        pairs.append((body, raw))
        return raw

    monkeypatch.setattr(daemon_module, "encode_json", spy)
    return pairs


class TestWireEquivalence:
    @pytest.mark.parametrize("method, path, payload, status", REQUESTS, ids=IDS)
    def test_client_parses_what_json_dumps_would_give(
        self, daemon, encoded, method, path, payload, status
    ):
        got, headers, raw = _exchange(daemon, method, path, payload)
        assert got == status
        if path == "/metrics":
            # The Prometheus text is not JSON and skips the encoder.
            assert headers["Content-Type"].startswith("text/plain")
            assert encoded == []
            assert raw.decode("utf-8").startswith("#")
            return
        assert headers["Content-Type"] == "application/json"
        ((body, sent),) = encoded
        assert raw == sent
        assert _hexed(json.loads(raw)) == _hexed(json.loads(json.dumps(body)))
        assert json.loads(raw)["request_id"] == headers["X-Request-Id"]

    def test_update_refused_with_503_when_the_updater_is_down(
        self, daemon, encoded
    ):
        daemon._update_error = "RuntimeError: boom"
        status, _, raw = _exchange(daemon, "POST", "/update", UPDATE)
        assert status == 503
        ((body, _),) = encoded
        assert json.loads(raw) == json.loads(json.dumps(body))
        assert "updater thread is down" in json.loads(raw)["error"]

    def test_every_served_score_is_the_snapshots_double(self, daemon):
        snapshot = daemon.state.snapshot
        _, _, raw = _exchange(daemon, "POST", "/classify", {"nodes": NODES})
        for entry in json.loads(raw)["results"]:
            row = snapshot.node_names.index(entry["node"])
            for c, label in enumerate(snapshot.label_names):
                served = entry["scores"][label]
                assert served.hex() == float(snapshot.node_scores[row, c]).hex()
        for c, label in enumerate(snapshot.label_names):
            _, _, raw = _exchange(daemon, "GET", f"/topk?label={label}&k=4")
            for entry in json.loads(raw)["results"]:
                row = snapshot.node_names.index(entry["node"])
                expected = float(snapshot.node_scores[row, c]).hex()
                assert entry["score"].hex() == expected
            _, _, raw = _exchange(daemon, "GET", f"/relations?label={label}")
            for entry in json.loads(raw)["relations"]:
                r = snapshot.relation_names.index(entry["relation"])
                expected = float(snapshot.relation_scores[r, c]).hex()
                assert entry["weight"].hex() == expected


class TestEdgeValues:
    def test_numpy_scalars_in_the_flight_ring_encode(self, daemon):
        # FlightRecorder.emit already coerces numpy fields; a record put
        # straight into the ring shows the encoder copes on its own.
        flight = daemon.state.flight
        with flight._lock:
            flight._ring.append(
                {
                    "event": "injected",
                    "ts": 0.0,
                    "count": np.int64(7),
                    "mass": np.float64(0.1),
                    "flag": np.bool_(True),
                }
            )
        status, _, raw = _exchange(daemon, "GET", "/debug/trace")
        assert status == 200
        (event,) = [e for e in json.loads(raw)["events"] if e["event"] == "injected"]
        assert (event["count"], event["mass"], event["flag"]) == (7, 0.1, True)
        assert type(event["count"]) is int and type(event["flag"]) is bool

    def test_non_finite_floats_encode_as_null(self):
        values = {"nan": math.nan, "inf": math.inf, "ninf": -math.inf, "one": 1.0}
        assert json.loads(encode_json(values)) == {
            "nan": None,
            "inf": None,
            "ninf": None,
            "one": 1.0,
        }

    def test_doubles_read_back_bit_identical(self):
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64, endpoint=False)
        doubles = bits.view(np.float64)
        special = [0.0, -0.0, 5e-324, 2.2250738585072014e-308,
                   2.225073858507201e-308, 1.7976931348623157e308, 1e16,
                   1e-7, 0.1, 1 / 3, 2.0**53 + 2]
        values = doubles[np.isfinite(doubles)].tolist() + special
        values += rng.random(5_000).tolist()
        parsed = json.loads(encode_json(values))
        assert [v.hex() for v in parsed] == [v.hex() for v in values]
        assert parsed == json.loads(json.dumps(values))


class TestNonStringNodeIds:
    @pytest.mark.parametrize(
        "nodes", [[[1]], [{"a": 1}], ["p1", 1]], ids=["list", "object", "int"]
    )
    def test_answered_400_and_recorded(self, daemon, nodes):
        status, headers, raw = _exchange(
            daemon, "POST", "/classify", {"nodes": nodes}
        )
        assert status == 400
        assert "node names" in json.loads(raw)["error"]
        (event,) = [
            e
            for e in daemon.state.flight.events()
            if e["event"] == "http_request"
            and e.get("request_id") == headers["X-Request-Id"]
        ]
        assert event["status"] == 400 and event["endpoint"] == "/classify"
        # The connection survived: the daemon still answers.
        assert _exchange(daemon, "POST", "/classify", {"nodes": NODES})[0] == 200


class TestRequestPhases:
    @pytest.mark.parametrize("method, path, payload, status", REQUESTS, ids=IDS)
    def test_each_request_splits_its_seconds(
        self, daemon, method, path, payload, status
    ):
        got, headers, _ = _exchange(daemon, method, path, payload)
        assert got == status
        (event,) = [
            e
            for e in daemon.state.flight.events()
            if e["event"] == "http_request"
            and e.get("request_id") == headers["X-Request-Id"]
        ]
        phases = [event[f"{name}_seconds"] for name in ("parse", "handle", "encode")]
        assert all(seconds >= 0.0 for seconds in phases)
        assert sum(phases) <= event["seconds"]

    def test_request_span_encloses_parse_handle_and_encode(self, daemon):
        # The request span closes after the reply is encoded, so a trace
        # reader looking only at spans sees where serialise time went.
        request_ids = []
        for _ in range(20):
            status, headers, _ = _exchange(
                daemon, "POST", "/classify", {"nodes": NODES}
            )
            assert status == 200
            request_ids.append(headers["X-Request-Id"])
        events = daemon.state.flight.events()
        spans = {
            e["span_id"]: e
            for e in events
            if e["event"] == "span" and e["name"] == "request"
        }
        requests = {
            e["request_id"]: e for e in events if e["event"] == "http_request"
        }
        for request_id in request_ids:
            event = requests[request_id]
            phases = sum(
                event[f"{name}_seconds"] for name in ("parse", "handle", "encode")
            )
            assert spans[request_id]["seconds"] >= phases, request_id
