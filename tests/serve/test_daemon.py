"""End-to-end tests for the prediction daemon: HTTP, swaps, readiness.

The concurrency tests are the serving tier's core guarantee: a reader
hammering ``/classify`` while the updater thread reconverges and swaps
snapshots must only ever observe complete pre- or post-update states,
never a mix.  Every published snapshot is recorded via a swap hook, and
every concurrent response is checked against the snapshot its reported
``snapshot_version`` names.
"""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.tmark import TMark
from repro.datasets import make_worked_example
from repro.errors import ValidationError
from repro.obs import registry_from_events
from repro.serve import PredictionDaemon
from repro.stream import DeltaLog, GraphDelta, StreamingSession


def _fitted_session():
    session = StreamingSession(make_worked_example(), TMark(update_labels=False))
    session.fit()
    return session


@pytest.fixture()
def daemon():
    d = PredictionDaemon(_fitted_session()).start()
    yield d
    d.stop()


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get_text(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, response.read().decode()


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_classify_round_trip(self, daemon):
        status, body = _post(daemon.url, "/classify", {"nodes": ["p1", "p2"]})
        assert status == 200
        assert body["snapshot_version"] == 0
        assert body["results"][0]["label"] in daemon.state.snapshot.label_names

    def test_topk_and_relations(self, daemon):
        status, body = _get(daemon.url, "/topk?label=DM&k=2")
        assert status == 200 and len(body["results"]) == 2
        status, body = _get(daemon.url, "/relations?label=CV")
        assert status == 200 and len(body["relations"]) == 3

    def test_healthz_ready(self, daemon):
        status, body = _get(daemon.url, "/healthz")
        assert status == 200 and body["status"] == "ready"

    def test_unknown_endpoint_404(self, daemon):
        assert _get(daemon.url, "/nope")[0] == 404
        assert _post(daemon.url, "/nope", {})[0] == 404

    def test_non_json_body_400(self, daemon):
        request = urllib.request.Request(
            daemon.url + "/classify", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_bad_content_length_400(self, daemon, length):
        # A raw request: urllib always sends a well-formed Content-Length.
        request = (
            "POST /classify HTTP/1.1\r\n"
            f"Host: {daemon.host}\r\n"
            f"Content-Length: {length}\r\n"
            "Content-Type: application/json\r\n"
            "\r\n"
            '{"nodes": ["p1"]}'
        ).encode()
        with socket.create_connection((daemon.host, daemon.port), timeout=3) as sock:
            sock.sendall(request)
            reply = b""
            while b"\r\n" not in reply:
                chunk = sock.recv(4096)
                assert chunk, "connection closed without a reply"
                reply += chunk
        assert reply.startswith(b"HTTP/1.1 400 ")

    def test_metrics_prometheus_parses(self, daemon):
        _post(daemon.url, "/classify", {"nodes": ["p1"]})
        status, text = _get_text(daemon.url, "/metrics")
        assert status == 200
        # Minimal Prometheus text-format validation: every non-comment
        # line is "<name>[{labels}] <number>", numbers parse as floats
        # (including +Inf/-Inf/NaN spellings).
        seen = 0
        for line in text.strip().splitlines():
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            assert name_part and not name_part[0].isdigit()
            float(value.replace("+Inf", "inf").replace("-Inf", "-inf").replace("NaN", "nan"))
            seen += 1
        assert seen >= 4
        assert "tmark_http_classify_requests_total" in text

    def test_update_applies_and_bumps_version(self, daemon):
        delta = GraphDelta.set_label("p2", ["CV"]).to_dict()
        status, body = _post(daemon.url, "/update", {"deltas": [delta]})
        assert status == 202 and body["accepted"] == 1
        daemon.flush()
        assert daemon.state.snapshot.version == 1
        assert daemon.applied_updates == 1
        status, body = _post(daemon.url, "/classify", {"nodes": ["p2"]})
        assert body["snapshot_version"] == 1

    def test_update_counters_refold_from_the_flight_ring(self, daemon):
        for label in ("CV", "DM"):
            delta = GraphDelta.set_label("p2", [label]).to_dict()
            assert _post(daemon.url, "/update", {"deltas": [delta]})[0] == 202
        daemon.flush()
        _, text = _get_text(daemon.url, "/metrics")
        samples = dict(
            line.rsplit(" ", 1)
            for line in text.splitlines()
            if line and not line.startswith("#")
        )
        refold = registry_from_events(daemon.state.flight.events())
        assert samples["tmark_snapshot_swaps_total"] == "2"
        for name in ("tmark_snapshot_swaps_total", "tmark_reconverges_total"):
            assert float(samples[name]) == refold.get(name).value, name


class TestSolver:
    def test_solver_is_set_on_the_model_once(self):
        session = _fitted_session()
        daemon = PredictionDaemon(session, solver="anderson").start()
        try:
            delta = GraphDelta.set_label("p2", ["CV"]).to_dict()
            assert _post(daemon.url, "/update", {"deltas": [delta]})[0] == 202
            daemon.flush()
        finally:
            daemon.stop()
        assert session.model.solver == "anderson"
        fits = [e for e in daemon.state.flight.events() if e["event"] == "fit"]
        assert [e["solver"] for e in fits] == ["anderson"]

    def test_unknown_solver_is_refused(self):
        session = _fitted_session()
        with pytest.raises(ValidationError, match="solver must be one of"):
            PredictionDaemon(session, solver="auto")
        assert session.model.solver == "plain"


class TestJournaling:
    def test_accepted_updates_are_journaled(self, tmp_path):
        journal = tmp_path / "serving.jsonl"
        daemon = PredictionDaemon(_fitted_session(), journal=journal).start()
        try:
            for label in ("CV", "DM"):
                delta = GraphDelta.set_label("p2", [label]).to_dict()
                assert _post(daemon.url, "/update", {"deltas": [delta]})[0] == 202
            daemon.flush()
        finally:
            daemon.stop()
        log = DeltaLog.load(journal)
        assert len(log) == 2 and log.n_batches == 2
        assert [d.op for d in log] == ["set_label", "set_label"]

    def test_journal_with_committed_batches_is_refused(self, tmp_path):
        journal = tmp_path / "serving.jsonl"
        DeltaLog.append_batch(journal, [GraphDelta.set_label("p2", ["CV"])])
        before = journal.read_bytes()
        with pytest.raises(ValidationError, match="replay it"):
            PredictionDaemon(_fitted_session(), journal=journal)
        assert journal.read_bytes() == before

    def test_journal_without_committed_batches_is_extended(self, tmp_path):
        journal = tmp_path / "serving.jsonl"
        DeltaLog.append_batch(journal, [])  # a bare header
        daemon = PredictionDaemon(_fitted_session(), journal=journal).start()
        try:
            delta = GraphDelta.set_label("p2", ["CV"]).to_dict()
            assert _post(daemon.url, "/update", {"deltas": [delta]})[0] == 202
            daemon.flush()
        finally:
            daemon.stop()
        assert DeltaLog.load(journal).n_batches == 1


class TestConcurrency:
    def test_no_torn_reads_across_snapshot_swaps(self):
        daemon = PredictionDaemon(_fitted_session()).start()
        published = {0: daemon.state.snapshot}
        original_swap = daemon.state.swap

        def recording_swap(snapshot, **kwargs):
            published[snapshot.version] = snapshot
            original_swap(snapshot, **kwargs)

        daemon.state.swap = recording_swap
        nodes = list(daemon.state.snapshot.node_names)
        observed = []
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                status, body = _post(daemon.url, "/classify", {"nodes": nodes})
                if status != 200:
                    errors.append(body)
                    return
                observed.append(
                    (
                        body["snapshot_version"],
                        tuple(r["label"] for r in body["results"]),
                        tuple(
                            r["scores"][label]
                            for r in body["results"]
                            for label in daemon.state.snapshot.label_names
                        ),
                    )
                )

        readers = [threading.Thread(target=reader) for _ in range(3)]
        try:
            for thread in readers:
                thread.start()
            # Flip p2's anchor label back and forth: every reconverge
            # moves real probability mass, so mixed-snapshot responses
            # would be detectable in both labels and scores.
            for i in range(6):
                label = "CV" if i % 2 == 0 else "DM"
                delta = GraphDelta.set_label("p2", [label]).to_dict()
                assert _post(daemon.url, "/update", {"deltas": [delta]})[0] == 202
            daemon.flush()
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=10)
            daemon.stop()

        assert not errors
        assert daemon.state.snapshot.version == 6
        assert observed, "readers never completed a request"
        index = {name: i for i, name in enumerate(nodes)}
        for version, labels, scores in observed:
            snapshot = published[version]
            expected_labels = tuple(snapshot.labels[index[n]] for n in nodes)
            assert labels == expected_labels, (
                f"torn read: version {version} served labels {labels}, "
                f"snapshot has {expected_labels}"
            )
            expected_scores = tuple(
                float(snapshot.node_scores[index[n], c])
                for n in nodes
                for c in range(len(snapshot.label_names))
            )
            assert scores == expected_scores, f"torn scores at version {version}"
        # The updates must have actually changed predictions somewhere,
        # otherwise this test has nothing to detect.
        distinct = {snap.labels for snap in published.values()}
        assert len(distinct) >= 2

    def test_healthz_flips_to_503_when_reconverge_is_unhealthy(self):
        daemon = PredictionDaemon(_fitted_session()).start()
        try:
            assert _get(daemon.url, "/healthz")[0] == 200
            # Starve the refit budget: an unreachable tolerance makes
            # the next reconverge exhaust max_iter and surface
            # not_converged chain health.
            daemon._session.model.max_iter = 1
            daemon._session.model.tol = 0.0
            delta = GraphDelta.set_label("p2", ["CV"]).to_dict()
            # The exhausted solve emits RuntimeWarning from the updater
            # thread; pytest.warns can't capture cross-thread, so the
            # health verdict below is the assertion that matters.
            assert _post(daemon.url, "/update", {"deltas": [delta]})[0] == 202
            daemon.flush()
            status, body = _get(daemon.url, "/healthz")
            assert status == 503
            assert body["status"] == "unhealthy"
            assert body["worst_health"] == "not_converged"
            # Reads keep working from the (unhealthy but latest) snapshot.
            assert _post(daemon.url, "/classify", {"nodes": ["p1"]})[0] == 200
        finally:
            daemon.stop()


def _get_with_headers(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, json.loads(response.read()), dict(response.headers)


class TestRequestIds:
    def test_request_id_echoed_in_body_and_header(self, daemon):
        status, body, headers = _get_with_headers(daemon.url, "/healthz")
        assert status == 200
        assert body["request_id"]
        assert headers["X-Request-Id"] == body["request_id"]

    def test_request_id_matches_the_request_span(self, daemon):
        _, body = _post(daemon.url, "/classify", {"nodes": ["p1"]})
        request_id = body["request_id"]
        spans = [
            e
            for e in daemon.state.flight.events()
            if e["event"] == "span" and e.get("name") == "request"
        ]
        assert request_id in {e["span_id"] for e in spans}
        (request_span,) = [e for e in spans if e["span_id"] == request_id]
        assert request_span["endpoint"] == "/classify"
        # The http_request event of the same request is tagged with it.
        requests = [
            e
            for e in daemon.state.flight.events()
            if e["event"] == "http_request"
            and e.get("request_id") == request_id
        ]
        assert len(requests) == 1
        assert requests[0]["status"] == 200

    def test_concurrent_requests_get_unique_ids(self, daemon):
        ids, errors = [], []
        lock = threading.Lock()

        def hit():
            try:
                _, body = _post(daemon.url, "/classify", {"nodes": ["p1"]})
                with lock:
                    ids.append(body["request_id"])
            except Exception as exc:  # pragma: no cover - diagnostic
                with lock:
                    errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(ids) == 16
        assert len(set(ids)) == 16
        span_ids = {
            e["span_id"]
            for e in daemon.state.flight.events()
            if e["event"] == "span" and e.get("name") == "request"
        }
        assert set(ids) <= span_ids


class TestDebugEndpoints:
    def test_debug_vars_over_http(self, daemon):
        status, body = _get(daemon.url, "/debug/vars")
        assert status == 200
        assert body["pid"] > 0
        assert body["snapshot_version"] == 0
        assert body["snapshot_age_seconds"] >= 0.0
        assert body["flight_capacity"] == daemon.state.flight.capacity

    def test_debug_trace_over_http(self, daemon):
        _get(daemon.url, "/healthz")  # populate the ring
        status, body = _get(daemon.url, "/debug/trace")
        assert status == 200
        assert body["n_events"] >= 1
        kinds = {e["event"] for e in body["events"]}
        assert "span" in kinds or "http_request" in kinds

    def test_debug_trace_last_param(self, daemon):
        for _ in range(3):
            _get(daemon.url, "/healthz")
        status, body = _get(daemon.url, "/debug/trace?last=2")
        assert status == 200
        assert body["n_events"] == 2
        status, body = _get(daemon.url, "/debug/trace?last=nope")
        assert status == 400

    def test_healthz_staleness_fields_over_http(self, daemon):
        _, body = _get(daemon.url, "/healthz")
        assert body["snapshot_age_seconds"] >= 0.0
        assert body["last_reconverge_seconds"] is None

    def test_update_records_reconverge_seconds(self, daemon):
        delta = GraphDelta.set_label("p1", ["CV"]).to_dict()
        status, _ = _post(daemon.url, "/update", {"deltas": [delta]})
        assert status == 202
        daemon.flush()
        _, body = _get(daemon.url, "/healthz")
        assert body["last_reconverge_seconds"] is not None
        assert body["last_reconverge_seconds"] >= 0.0
        # The update ran inside an "update" span on the flight ring.
        updates = [
            e
            for e in daemon.state.flight.events()
            if e["event"] == "span" and e.get("name") == "update"
        ]
        assert len(updates) == 1
        assert updates[0]["n_deltas"] == 1
