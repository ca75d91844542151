"""Tests for the Chrome-trace / Perfetto exporter."""

import gzip
import json

import pytest

from repro.core import TMark
from repro.obs import (
    JsonlTraceRecorder,
    ListRecorder,
    chrome_trace,
    read_trace,
    use_recorder,
    write_chrome_trace,
)
from repro.obs.flight import FlightRecorder, sample_process_stats
from repro.obs.spans import span
from tests.conftest import small_labeled_hin


@pytest.fixture(scope="module")
def traced_fit_events(tmp_path_factory):
    """A real traced fit: ambient recorder + spans, read back from JSONL."""
    path = tmp_path_factory.mktemp("chrome") / "trace.jsonl"
    hin = small_labeled_hin(seed=3, n=30, q=3)
    with JsonlTraceRecorder(path, probes=False) as recorder:
        with use_recorder(recorder), span("experiment", experiment="test"):
            TMark(alpha=0.8, gamma=0.4, max_iter=40).fit(hin)
    return read_trace(path)


def slices(payload):
    return [e for e in payload["traceEvents"] if e.get("ph") == "X"]


def interval(entry):
    return entry["ts"], entry["ts"] + entry["dur"]


class TestSchema:
    def test_every_event_carries_the_chrome_keys(self, traced_fit_events):
        payload = chrome_trace(traced_fit_events)
        events = payload["traceEvents"]
        assert events
        assert payload["displayTimeUnit"] == "ms"
        for entry in events:
            assert "ph" in entry
            assert "ts" in entry
            assert "pid" in entry
            assert "tid" in entry
            if entry["ph"] == "X":
                assert entry["dur"] >= 0.0

    def test_json_serialisable(self, traced_fit_events):
        payload = chrome_trace(traced_fit_events)
        parsed = json.loads(json.dumps(payload))
        assert parsed["traceEvents"]

    def test_process_metadata_present(self, traced_fit_events):
        payload = chrome_trace(traced_fit_events)
        metadata = [
            e for e in payload["traceEvents"] if e.get("ph") == "M"
        ]
        assert metadata
        assert any(e["args"]["name"] == "tmark" for e in metadata)



class TestHierarchy:
    def test_fit_contains_fit_chains_contains_iterations_and_phases(
        self, traced_fit_events
    ):
        payload = chrome_trace(traced_fit_events)
        xs = slices(payload)
        (fit,) = [e for e in xs if e["name"] == "fit"]
        (chains,) = [e for e in xs if e["name"] == "fit_chains"]
        iterations = [e for e in xs if e["name"].startswith("iteration ")]
        phases = [e for e in xs if e.get("cat") == "phase"]
        assert iterations and phases
        # All on one process/thread lane (the fit ran on one thread).
        lanes = {(e["pid"], e["tid"]) for e in (fit, chains, *iterations)}
        assert len(lanes) == 1
        # Temporal nesting: fit ⊇ fit_chains ⊇ every iteration ⊇ its
        # phase slices.  A small tolerance absorbs float rounding in the
        # microsecond conversion.
        eps = 1.0
        fit_start, fit_end = interval(fit)
        chains_start, chains_end = interval(chains)
        assert fit_start - eps <= chains_start
        assert chains_end <= fit_end + eps
        for entry in iterations:
            start, end = interval(entry)
            assert chains_start - eps <= start
            assert end <= chains_end + eps
        for phase in phases:
            start, end = interval(phase)
            assert any(
                interval(it)[0] - eps <= start and end <= interval(it)[1] + eps
                for it in iterations
            ), phase["name"]

    def test_iteration_slices_are_named_by_t(self, traced_fit_events):
        payload = chrome_trace(traced_fit_events)
        names = {e["name"] for e in slices(payload)}
        assert "iteration 1" in names  # chain_iteration t is 1-indexed

    def test_span_slices_carry_their_ids(self, traced_fit_events):
        payload = chrome_trace(traced_fit_events)
        (experiment,) = [
            e for e in slices(payload) if e["name"] == "experiment"
        ]
        assert experiment["cat"] == "span"
        assert experiment["args"]["span_id"]
        assert experiment["args"]["trace_id"]

    def test_flat_events_tagged_with_enclosing_span(self, traced_fit_events):
        (chains,) = [
            e
            for e in traced_fit_events
            if e["event"] == "span" and e["name"] == "fit_chains"
        ]
        iterations = [
            e for e in traced_fit_events if e["event"] == "chain_iteration"
        ]
        assert iterations
        for event in iterations:
            assert event["span_id"] == chains["span_id"]


class TestSolverSlices:
    @pytest.fixture(scope="class")
    def anderson_events(self):
        recorder = ListRecorder()
        hin = small_labeled_hin(seed=3, n=30, q=3)
        TMark(alpha=0.8, gamma=0.4, max_iter=40, solver="anderson").fit(
            hin, recorder=recorder
        )
        return recorder.events

    def test_solver_time_closes_each_iteration(self, anderson_events):
        iterations = [e for e in anderson_events if e["event"] == "chain_iteration"]
        xs = slices(chrome_trace(anderson_events))
        solver = [e for e in xs if e["name"] == "solver"]
        assert len(solver) == len(iterations)
        assert {e["cat"] for e in solver} == {"solver"}
        for entry, event in zip(solver, iterations):
            assert entry["dur"] == pytest.approx(event["solver_seconds"] * 1e6)
            # Each iteration slice is followed by its phase slices and
            # then the solver slice, which ends where the iteration does.
            at = next(i for i, e in enumerate(xs) if e is entry)
            start = max(
                i for i in range(at) if xs[i]["name"] == f"iteration {event['t']}"
            )
            iteration, phases = xs[start], xs[start + 1:at]
            assert {e["cat"] for e in phases} == {"phase"}
            assert interval(entry)[1] == pytest.approx(interval(iteration)[1])
            assert sum(e["dur"] for e in phases) + entry["dur"] == pytest.approx(
                iteration["dur"]
            )

    def test_solver_events_stay_instants(self, anderson_events):
        payload = chrome_trace(anderson_events)
        steps = [e for e in payload["traceEvents"] if e["name"] == "solver_step"]
        assert steps and {e["ph"] for e in steps} == {"i"}

    def test_plain_fit_has_no_solver_slice(self, traced_fit_events):
        names = {e["name"] for e in slices(chrome_trace(traced_fit_events))}
        assert "solver" not in names


class TestCountersAndInstants:
    def test_resource_samples_become_counter_tracks(self):
        flight = FlightRecorder()
        flight.emit("resource_sample", **sample_process_stats())
        payload = chrome_trace(flight.events())
        counters = [
            e for e in payload["traceEvents"] if e.get("ph") == "C"
        ]
        names = {e["name"] for e in counters}
        assert names == {"memory", "cpu_seconds", "gc_collections"}
        (memory,) = [e for e in counters if e["name"] == "memory"]
        assert memory["args"]["rss_mb"] >= 0.0

    def test_unrecognized_events_become_instants(self):
        payload = chrome_trace([{"event": "pool_start", "ts": 1.0, "workers": 2}])
        (instant,) = [
            e for e in payload["traceEvents"] if e.get("ph") == "i"
        ]
        assert instant["name"] == "pool_start"
        assert instant["s"] == "t"

    def test_http_request_becomes_a_named_slice(self):
        events = [
            {
                "event": "http_request",
                "ts": 2.0,
                "seconds": 0.5,
                "endpoint": "/classify",
                "status": 200,
            }
        ]
        payload = chrome_trace(events)
        (entry,) = slices(payload)
        assert entry["name"] == "http /classify"
        assert entry["dur"] == pytest.approx(0.5e6)
        assert entry["ts"] == pytest.approx(1.5e6)

    def test_snapshot_swap_becomes_a_slice_of_its_seconds(self):
        from dataclasses import replace

        from repro.datasets import make_worked_example
        from repro.serve import ServingState, Snapshot
        from repro.stream import StreamingSession

        session = StreamingSession(make_worked_example(), TMark(update_labels=False))
        session.fit()
        state = ServingState(Snapshot.from_session(session))
        state.swap(replace(state.snapshot, version=1), build_seconds=0.25)
        (swap,) = [e for e in state.flight.events() if e["event"] == "snapshot_swap"]
        (entry,) = slices(chrome_trace([swap]))
        assert entry["name"] == "snapshot_swap"
        assert entry["dur"] == pytest.approx(0.25e6)
        assert entry["ts"] == pytest.approx((swap["ts"] - 0.25) * 1e6)

    def test_worker_span_gets_its_own_process_lane(self):
        events = [
            {
                "event": "span",
                "name": "pool",
                "ts": 1.0,
                "seconds": 1.0,
                "span_id": "a",
                "trace_id": "a",
                "pid": 100,
                "tid": 1,
            },
            {
                "event": "span",
                "name": "cell",
                "ts": 0.9,
                "seconds": 0.5,
                "span_id": "b",
                "trace_id": "a",
                "parent_id": "a",
                "pid": 200,
                "tid": 1,
                "worker": 200,
            },
        ]
        payload = chrome_trace(events)
        metadata = {
            e["pid"]: e["args"]["name"]
            for e in payload["traceEvents"]
            if e.get("ph") == "M"
        }
        assert metadata[100] == "tmark"
        assert metadata[200] == "worker 200"


class TestWriteChromeTrace:
    def test_round_trips_through_file(self, traced_fit_events, tmp_path):
        out = tmp_path / "trace.chrome.json"
        assert write_chrome_trace(traced_fit_events, out) == out
        parsed = json.loads(out.read_text(encoding="utf-8"))
        assert parsed["traceEvents"]

    def test_gz_output_is_gzip(self, traced_fit_events, tmp_path):
        out = tmp_path / "trace.chrome.json.gz"
        write_chrome_trace(traced_fit_events, out)
        with gzip.open(out, "rt", encoding="utf-8") as handle:
            parsed = json.load(handle)
        assert parsed["traceEvents"]


class TestChunkedBuildSpans:
    def test_chunk_events_link_to_the_build_span(self, tmp_path):
        from repro.obs import ListRecorder
        from repro.ooc import GraphStore
        from repro.ooc.build import build_chunked_operators

        hin = small_labeled_hin(seed=4, n=25, q=3)
        store = GraphStore.save(hin, tmp_path / "store")
        recorder = ListRecorder(probes=False)
        build_chunked_operators(store, recorder=recorder)
        spans = recorder.events_of("span")
        names = {e["name"] for e in spans}
        assert "build_chunked_operators" in names
        (build,) = [
            e for e in spans if e["name"] == "build_chunked_operators"
        ]
        children = [e for e in spans if e["parent_id"] == build["span_id"]]
        assert {e["name"] for e in children} >= {"build_o", "build_r"}
        # Per-chunk operator_build events are tagged with the phase span
        # that produced them.
        child_ids = {e["span_id"] for e in children}
        chunk_events = [
            e
            for e in recorder.events_of("operator_build")
            if "operator" in e
        ]
        assert chunk_events
        for event in chunk_events:
            assert event.get("span_id") in child_ids


class TestOperatorBuildSlices:
    """An ``operator_build`` slice spans its O/R build and its W build."""

    @staticmethod
    def traced(tmp_path, build):
        path = tmp_path / "trace.jsonl"
        with JsonlTraceRecorder(path, probes=False) as recorder:
            build(recorder)
        events = read_trace(path)
        return events, slices(chrome_trace(events))

    def test_in_memory_build_slice_covers_both_builds(self, tmp_path):
        from repro.core import build_operators

        hin = small_labeled_hin(seed=5, n=30, q=3)
        events, out = self.traced(
            tmp_path, lambda rec: build_operators(hin, recorder=rec)
        )
        (event,) = [e for e in events if e["event"] == "operator_build"]
        (build_span,) = [e for e in out if e["name"] == "build_operators"]
        (build,) = [e for e in out if e["name"] == "operator_build"]
        seconds = event["transition_seconds"] + event["feature_seconds"]
        assert event["feature_seconds"] > 0.0
        assert build["dur"] == pytest.approx(seconds * 1e6)
        assert build["ts"] + build["dur"] == pytest.approx(event["ts"] * 1e6)
        span_start, span_end = interval(build_span)
        assert span_start <= build["ts"] <= span_end

    def test_store_w_build_slice_is_not_empty(self, tmp_path):
        from repro.ooc import GraphStore
        from repro.ooc.build import build_chunked_operators

        store = GraphStore.save(small_labeled_hin(seed=4, n=25, q=3), tmp_path / "s")
        events, out = self.traced(
            tmp_path, lambda rec: build_chunked_operators(store, recorder=rec)
        )
        (event,) = [
            e
            for e in events
            if e["event"] == "operator_build" and e["operator"] == "W"
        ]
        assert event["transition_seconds"] == 0.0
        (build,) = [e for e in out if e["name"] == "operator_build[W-1#0]"]
        assert build["dur"] == pytest.approx(event["feature_seconds"] * 1e6)
        assert build["dur"] > 0.0
