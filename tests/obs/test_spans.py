"""Tests for hierarchical spans, the flight ring and the resource sampler."""

import threading

import pytest

from repro.errors import ValidationError
from repro.obs import ListRecorder, use_recorder
from repro.obs.flight import FlightRecorder, ResourceSampler, sample_process_stats
from repro.obs.spans import (
    SpanContext,
    activate_span,
    annotate_span,
    current_span,
    current_span_id,
    new_span_id,
    span,
)


class TestSpanIdentity:
    def test_new_span_id_is_16_hex_chars(self):
        ids = {new_span_id() for _ in range(64)}
        assert len(ids) == 64
        for value in ids:
            assert len(value) == 16
            int(value, 16)

    def test_child_links_parent_and_inherits_trace(self):
        root = SpanContext(span_id="aa", trace_id="aa")
        child = root.child()
        assert child.parent_id == "aa"
        assert child.trace_id == "aa"
        assert child.span_id != "aa"


class TestSpanNesting:
    def test_root_span_is_its_own_trace(self):
        recorder = ListRecorder()
        with span("outer", recorder=recorder) as ctx:
            assert ctx.parent_id is None
            assert ctx.trace_id == ctx.span_id
        (event,) = recorder.events_of("span")
        assert event["name"] == "outer"
        assert event["span_id"] == ctx.span_id
        assert event["parent_id"] is None
        assert event["seconds"] >= 0.0
        assert event["pid"] > 0
        assert event["tid"] > 0

    def test_nested_spans_chain_parent_ids(self):
        recorder = ListRecorder()
        with span("outer", recorder=recorder) as outer:
            with span("inner", recorder=recorder) as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
        inner_event, outer_event = recorder.events_of("span")
        # Emission order is close order: inner closes first.
        assert inner_event["name"] == "inner"
        assert inner_event["parent_id"] == outer_event["span_id"]
        assert inner_event["trace_id"] == outer_event["trace_id"]
        # The inner interval nests inside the outer one (ts stamped at
        # close; start = ts - seconds on the same recorder clock).
        assert inner_event["seconds"] <= outer_event["seconds"]

    def test_context_restored_after_exit(self):
        recorder = ListRecorder()
        assert current_span() is None
        with span("outer", recorder=recorder) as ctx:
            assert current_span() is ctx
            assert current_span_id() == ctx.span_id
        assert current_span() is None
        assert current_span_id() is None

    def test_extra_fields_ride_the_event(self):
        recorder = ListRecorder()
        with span("fit_chains", recorder=recorder, n_classes=4, solver="plain"):
            pass
        (event,) = recorder.events_of("span")
        assert event["n_classes"] == 4
        assert event["solver"] == "plain"

    def test_annotated_fields_land_on_their_own_span(self):
        recorder = ListRecorder()
        with span("outer", recorder=recorder) as outer:
            with span("inner", recorder=recorder) as inner:
                annotate_span(inner, w_form="factored")
            annotate_span(outer, w_rank=5)
            annotate_span(outer, w_rank=6)
        inner_event, outer_event = recorder.events_of("span")
        assert inner_event["w_form"] == "factored" and "w_rank" not in inner_event
        assert outer_event["w_rank"] == 6 and "w_form" not in outer_event

    def test_annotating_a_disabled_span_is_a_no_op(self):
        with span("skipped") as ctx:
            annotate_span(ctx, w_form="dense")
        assert ctx is None

    def test_exception_recorded_and_reraised(self):
        recorder = ListRecorder()
        with pytest.raises(KeyError):
            with span("doomed", recorder=recorder):
                raise KeyError("boom")
        (event,) = recorder.events_of("span")
        assert event["error"] == "KeyError"

    def test_ambient_recorder_is_used_when_none_given(self):
        recorder = ListRecorder()
        with use_recorder(recorder):
            with span("ambient") as ctx:
                assert ctx is not None
        (event,) = recorder.events_of("span")
        assert event["name"] == "ambient"

    def test_disabled_recorder_yields_none_and_emits_nothing(self):
        recorder = ListRecorder(enabled=False)
        with span("skipped", recorder=recorder) as ctx:
            assert ctx is None
            assert current_span() is None
        assert recorder.events == []

    def test_default_null_recorder_is_a_no_op(self):
        with span("skipped") as ctx:
            assert ctx is None


class TestFlatEventTagging:
    def test_list_recorder_tags_events_inside_a_span(self):
        recorder = ListRecorder()
        with span("outer", recorder=recorder) as ctx:
            recorder.emit("fit", seconds=0.1)
        (fit,) = recorder.events_of("fit")
        assert fit["span_id"] == ctx.span_id

    def test_explicit_span_id_wins(self):
        recorder = ListRecorder()
        with span("outer", recorder=recorder):
            recorder.emit("fit", span_id="custom")
        (fit,) = recorder.events_of("fit")
        assert fit["span_id"] == "custom"

    def test_no_tag_outside_any_span(self):
        recorder = ListRecorder()
        recorder.emit("fit", seconds=0.1)
        assert "span_id" not in recorder.events[0]


class TestActivateSpan:
    def test_reroots_spans_under_a_shipped_context(self):
        recorder = ListRecorder()
        parent = SpanContext(span_id="p" * 16, trace_id="t" * 16)
        with activate_span(parent):
            with span("worker_cell", recorder=recorder):
                pass
        assert current_span() is None
        (event,) = recorder.events_of("span")
        assert event["parent_id"] == parent.span_id
        assert event["trace_id"] == parent.trace_id

    def test_none_clears_the_active_span(self):
        with activate_span(SpanContext(span_id="a", trace_id="a")):
            with activate_span(None):
                assert current_span() is None
            assert current_span_id() == "a"


class TestThreadIsolation:
    def test_fresh_threads_have_no_active_span_and_unique_ids(self):
        recorder = ListRecorder()
        seen: list[tuple[str | None, str]] = []
        lock = threading.Lock()
        # OS thread idents are recycled once a thread exits; the barrier
        # keeps all eight alive at once so their tids are distinct.
        barrier = threading.Barrier(8)

        def worker():
            inherited = current_span_id()
            with span("thread_root", recorder=recorder) as ctx:
                with lock:
                    seen.append((inherited, ctx.span_id))
                barrier.wait(timeout=10)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        with span("main_root", recorder=recorder):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # Threads do not inherit the main thread's contextvar value ...
        assert all(inherited is None for inherited, _ in seen)
        # ... and every thread-root span id is unique.
        ids = [span_id for _, span_id in seen]
        assert len(set(ids)) == 8
        roots = [
            e for e in recorder.events_of("span") if e["name"] == "thread_root"
        ]
        assert len({e["tid"] for e in roots}) == 8


class TestSampleProcessStats:
    def test_carries_the_documented_keys(self):
        stats = sample_process_stats()
        for key in (
            "pid",
            "rss_bytes",
            "max_rss_bytes",
            "cpu_user_seconds",
            "cpu_system_seconds",
            "gc_gen0",
            "gc_gen1",
            "gc_gen2",
            "gc_collections",
            "gc_collected",
            "n_threads",
        ):
            assert key in stats, key
        assert stats["pid"] > 0
        assert stats["n_threads"] >= 1
        assert stats["max_rss_bytes"] > 0  # getrusage works everywhere we run


class TestFlightRecorder:
    def test_ring_keeps_only_the_newest_capacity_events(self):
        flight = FlightRecorder(capacity=4)
        for index in range(10):
            flight.emit("fit", index=index)
        events = flight.events()
        assert [e["index"] for e in events] == [6, 7, 8, 9]
        assert flight.n_events == 10

    def test_last_parameter_takes_the_tail(self):
        flight = FlightRecorder(capacity=8)
        for index in range(5):
            flight.emit("fit", index=index)
        assert [e["index"] for e in flight.events(2)] == [3, 4]
        assert len(flight.events(0)) == 0
        assert len(flight.events(99)) == 5

    def test_events_carry_monotonic_ts_and_span_tags(self):
        flight = FlightRecorder()
        with span("outer", recorder=flight) as ctx:
            flight.emit("fit", seconds=0.1)
        fit, span_event = flight.events()
        assert fit["span_id"] == ctx.span_id
        assert span_event["event"] == "span"
        assert 0.0 <= fit["ts"] <= span_event["ts"]

    def test_values_are_json_coerced(self):
        import numpy as np

        flight = FlightRecorder()
        flight.emit("fit", seconds=np.float64(0.5), n=np.int64(3))
        (event,) = flight.events()
        assert isinstance(event["seconds"], float)
        assert isinstance(event["n"], int)

    def test_capacity_validated(self):
        with pytest.raises(ValidationError):
            FlightRecorder(capacity=0)

    def test_concurrent_emits_lose_nothing(self):
        flight = FlightRecorder(capacity=4096)

        def hammer(worker: int):
            for index in range(100):
                flight.emit("fit", worker=worker, index=index)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert flight.n_events == 800
        assert len(flight.events()) == 800


class TestResourceSampler:
    def test_emits_an_immediate_baseline_sample(self):
        recorder = ListRecorder()
        with ResourceSampler(recorder, interval=60.0):
            deadline = threading.Event()
            for _ in range(100):
                if recorder.events_of("resource_sample"):
                    break
                deadline.wait(0.02)
        samples = recorder.events_of("resource_sample")
        assert samples, "no baseline sample within 2s"
        assert samples[0]["rss_bytes"] >= 0
        assert samples[0]["cpu_user_seconds"] >= 0.0

    def test_stop_is_idempotent_and_restartable(self):
        recorder = ListRecorder()
        sampler = ResourceSampler(recorder, interval=60.0)
        sampler.stop()  # never started: no-op
        sampler.start()
        sampler.start()  # second start: no-op
        sampler.stop()
        sampler.stop()
        assert sampler._thread is None

    def test_interval_validated(self):
        with pytest.raises(ValidationError):
            ResourceSampler(ListRecorder(), interval=0.0)
