"""Tests for the metrics registry and its Recorder adapter."""

import pytest

from repro.core import TMark
from repro.errors import ValidationError
from repro.experiments.harness import run_grid
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    JsonlTraceRecorder,
    ListRecorder,
    MetricsRecorder,
    MetricsRegistry,
    read_trace,
    registry_from_events,
    use_recorder,
)
from repro.obs.metrics import EVENT_COUNTERS, _format_number
from repro.stream import GraphDelta, StreamingSession
from tests.conftest import small_labeled_hin


def _counters(registry: MetricsRegistry) -> dict[str, float]:
    """Every counter of ``registry`` as ``{name: value}``."""
    return {
        name: registry.get(name).value
        for name in registry.names()
        if registry.get(name).kind == "counter"
    }


class TestCounter:
    def test_increments(self):
        counter = Counter("tmark_fits_total")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4.0

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="cannot decrease"):
            Counter("c").inc(-1)

    def test_rejects_bad_name(self):
        with pytest.raises(ValidationError, match="metric name"):
            Counter("bad name!")


class TestGauge:
    def test_last_value_wins(self):
        gauge = Gauge("g")
        gauge.set(2.0)
        gauge.set(1.0)
        assert gauge.value == 1.0

    def test_set_max_keeps_peak(self):
        gauge = Gauge("g")
        gauge.set_max(0.5)
        gauge.set_max(0.1)
        assert gauge.value == 0.5

    def test_set_max_records_first_value_even_if_negative(self):
        gauge = Gauge("g")
        gauge.set_max(-1.0)
        assert gauge.value == -1.0 and gauge.updated

    def test_set_drops_nan(self):
        gauge = Gauge("g")
        gauge.set(float("nan"))
        assert not gauge.updated
        gauge.set(2.0)
        gauge.set(float("nan"))
        assert gauge.value == 2.0 and gauge.updated

    def test_set_max_survives_nan(self):
        # Regression: a NaN stored first made every later comparison
        # false, freezing the gauge at NaN forever.
        gauge = Gauge("g")
        gauge.set_max(float("nan"))
        assert not gauge.updated
        gauge.set_max(1.5)
        gauge.set_max(float("nan"))
        gauge.set_max(4.0)
        assert gauge.value == 4.0

    def test_never_set_gauge_not_exposed(self):
        assert Gauge("g").expose() == []


class TestHistogram:
    def test_observations_bin_by_upper_edge(self):
        hist = Histogram("h", edges=(1.0, 2.0))
        for value in (0.5, 1.0, 1.5, 99.0):
            hist.observe(value)
        # bisect_left: an observation equal to an edge lands in that bucket.
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(102.0)

    @pytest.mark.parametrize(
        "edges", [(), (2.0, 1.0), (1.0, 1.0), (float("inf"),)]
    )
    def test_rejects_bad_edges(self, edges):
        with pytest.raises(ValidationError):
            Histogram("h", edges=edges)

    def test_prometheus_buckets_are_cumulative(self):
        hist = Histogram("h", edges=(1.0, 2.0))
        for value in (0.5, 1.5, 99.0):
            hist.observe(value)
        lines = hist.expose()
        assert 'h_bucket{le="1"} 1' in lines
        assert 'h_bucket{le="2"} 2' in lines
        assert 'h_bucket{le="+Inf"} 3' in lines
        assert "h_sum 101" in lines
        assert "h_count 3" in lines


class TestMetricsRegistry:
    def test_instruments_create_on_first_access(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("b").set(1.0)
        registry.histogram("c").observe(0.1)
        assert registry.names() == ["a", "b", "c"]
        assert "a" in registry and len(registry) == 3

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ValidationError, match="is a counter"):
            registry.gauge("a")

    def test_histogram_edge_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", edges=(1.0, 2.0))
        with pytest.raises(ValidationError, match="already registered"):
            registry.histogram("h", edges=(1.0, 3.0))

    def test_prometheus_exposition_covers_all_instruments(self):
        registry = MetricsRegistry()
        registry.counter("tmark_fits_total").inc()
        registry.gauge("tmark_active_classes").set(3)
        text = registry.to_prometheus()
        assert "# TYPE tmark_fits_total counter" in text
        assert "tmark_fits_total 1" in text
        assert "# TYPE tmark_active_classes gauge" in text
        assert text.endswith("\n")

    def test_empty_exposition(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_non_finite_values_use_prometheus_spellings(self):
        # Regression: Python's repr spellings ("inf", "nan") are not
        # valid Prometheus text-format numbers.
        registry = MetricsRegistry()
        registry.counter("c").inc(float("inf"))
        gauge = registry.gauge("g")
        gauge.value, gauge.updated = float("-inf"), True
        text = registry.to_prometheus()
        assert "c +Inf" in text
        assert "g -Inf" in text
        assert "inf" not in text.replace("+Inf", "").replace("-Inf", "")
        assert _format_number(float("nan")) == "NaN"

class TestMetricsRecorder:
    def test_fit_events_feed_histograms_and_counters(self):
        recorder = MetricsRecorder()
        recorder.emit("fit", seconds=0.05, iterations=12, converged=False)
        registry = recorder.registry
        assert registry.get("tmark_fit_seconds").count == 1
        assert registry.get("tmark_fit_iterations").count == 1
        assert registry.get("tmark_unconverged_fits_total").value == 1.0
        assert registry.get("tmark_events_total").value == 1.0

    def test_chain_health_counts_by_status(self):
        recorder = MetricsRecorder()
        recorder.emit("chain_health", status="healthy")
        recorder.emit("chain_health", status="diverging")
        recorder.emit("chain_health", status="diverging")
        assert recorder.registry.get("tmark_chain_health_healthy_total").value == 1.0
        assert recorder.registry.get("tmark_chain_health_diverging_total").value == 2.0

    def test_invariant_probe_tracks_peak_drift_and_negativity(self):
        recorder = MetricsRecorder()
        recorder.emit("invariant_probe", x_mass_drift=1e-12, z_mass_drift=3e-10)
        recorder.emit("invariant_probe", x_mass_drift=1e-16, z_mass_drift=0.0,
                      n_negative=2)
        assert recorder.registry.get("tmark_max_mass_drift").value == 3e-10
        assert recorder.registry.get("tmark_negative_entries_total").value == 2.0

    def test_http_request_events_feed_serving_instruments(self):
        recorder = MetricsRecorder()
        recorder.emit("http_request", endpoint="/classify", seconds=0.002, status=200)
        recorder.emit("http_request", endpoint="/classify", seconds=0.004, status=404)
        registry = recorder.registry
        assert registry.get("tmark_http_classify_requests_total").value == 2.0
        assert registry.get("tmark_http_classify_seconds").count == 2
        assert registry.get("tmark_http_errors_total").value == 1.0

    def test_snapshot_swap_events_track_version(self):
        recorder = MetricsRecorder()
        recorder.emit("snapshot_swap", version=3, seconds=0.01)
        assert recorder.registry.get("tmark_snapshot_swaps_total").value == 1.0
        assert recorder.registry.get("tmark_snapshot_version").value == 3.0

    def test_unknown_events_still_count(self):
        recorder = MetricsRecorder()
        recorder.emit("mystery", foo=1)
        assert recorder.registry.get("tmark_events_total").value == 1.0

    def test_count_lands_in_total_counter(self):
        recorder = MetricsRecorder()
        recorder.emit("fit", seconds=0.1)
        recorder.emit("fit", seconds=0.2)
        assert recorder.registry.get("tmark_fits_total").value == 2.0

    def test_forward_chains_events_and_counts(self):
        sink = ListRecorder()
        recorder = MetricsRecorder(forward=sink)
        recorder.emit("fit", seconds=0.1)
        assert [e["event"] for e in sink.events] == ["fit"]
        assert recorder.registry.get("tmark_fits_total").value == 1.0

    def test_forward_inherits_probe_preference(self):
        assert MetricsRecorder(forward=ListRecorder(probes=False)).probes is False
        assert MetricsRecorder(forward=ListRecorder(probes=True)).probes is True

    def test_external_registry_is_used(self):
        registry = MetricsRegistry()
        MetricsRecorder(registry).emit("fit", seconds=0.1)
        assert registry.get("tmark_fit_seconds").count == 1


class TestEventCounters:
    """Every ``tmark_*_total`` work counter is derived from the events."""

    @pytest.mark.parametrize("event, name", sorted(EVENT_COUNTERS.items()))
    def test_one_per_event(self, event, name):
        recorder = MetricsRecorder()
        recorder.emit(event)
        recorder.emit(event)
        assert recorder.registry.get(name).value == 2.0

    def test_created_on_first_counted_event_only(self):
        recorder = MetricsRecorder()
        recorder.emit("fit", seconds=0.1)
        assert "tmark_trials_total" not in recorder.registry
        assert "tmark_unhealthy_chains_total" not in recorder.registry

    def test_frozen_columns_sum_the_frozen_flags(self):
        recorder = MetricsRecorder()
        recorder.emit("chain_iteration", frozen=[False, False])
        assert "tmark_frozen_columns_total" not in recorder.registry
        recorder.emit("chain_iteration", frozen=[True, False, True])
        assert recorder.registry.get("tmark_frozen_columns_total").value == 2.0

    def test_unhealthy_chains_count_non_healthy_verdicts(self):
        recorder = MetricsRecorder()
        recorder.emit("chain_health", status="healthy")
        assert "tmark_unhealthy_chains_total" not in recorder.registry
        recorder.emit("chain_health", status="stalled")
        recorder.emit("chain_health", status="oscillating")
        assert recorder.registry.get("tmark_unhealthy_chains_total").value == 2.0

    def test_unconverged_reconverges_count_unconverged_events(self):
        recorder = MetricsRecorder()
        recorder.emit("reconverge", iterations=3, converged=True)
        assert "tmark_unconverged_reconverges_total" not in recorder.registry
        recorder.emit("reconverge", iterations=50, converged=False)
        assert (
            recorder.registry.get("tmark_unconverged_reconverges_total").value == 1.0
        )

    def test_operator_builds_count_in_memory_builds_only(self):
        recorder = MetricsRecorder()
        recorder.emit("operator_build", operator="o", chunk=0)
        assert "tmark_operator_builds_total" not in recorder.registry
        recorder.emit("operator_build", w_form="dense")
        assert recorder.registry.get("tmark_operator_builds_total").value == 1.0

    def test_chunked_builds_count_completed_build_spans(self):
        recorder = MetricsRecorder()
        recorder.emit("span", name="build_o")
        recorder.emit("span", name="build_chunked_operators", error="OSError")
        assert "tmark_chunked_operator_builds_total" not in recorder.registry
        recorder.emit("span", name="build_chunked_operators")
        assert (
            recorder.registry.get("tmark_chunked_operator_builds_total").value == 1.0
        )

    def test_trace_refolds_to_the_live_counters(self, tmp_path):
        """A traced run's registry equals the one folded from its trace."""
        hin = small_labeled_hin(seed=3, n=40, q=3)

        def anderson():
            return TMark(alpha=0.6, gamma=0.3, solver="anderson")

        live = MetricsRegistry()
        path = tmp_path / "trace.jsonl"
        with JsonlTraceRecorder(path) as tracer:
            recorder = MetricsRecorder(live, forward=tracer)
            with use_recorder(recorder):
                run_grid(hin, [("T-Mark", anderson)], (0.3,), n_trials=2, seed=0)
                session = StreamingSession(hin, TMark(alpha=0.6, gamma=0.3))
                session.fit()
                name = hin.node_names[0]
                session.apply([GraphDelta.set_label(name, [hin.label_names[0]])])
        events = read_trace(path)
        counters = _counters(live)
        assert counters == _counters(registry_from_events(events))
        for name in (
            "tmark_fits_total", "tmark_trials_total", "tmark_grid_cells_total",
            "tmark_chain_iterations_total", "tmark_solver_steps_total",
            "tmark_delta_batches_total", "tmark_reconverges_total",
            "tmark_operator_patches_total", "tmark_operator_builds_total",
        ):
            assert counters[name] > 0, name
        assert counters["tmark_fits_total"] == sum(e["event"] == "fit" for e in events)


class TestRegistryFromEvents:
    def test_folds_a_parsed_trace(self):
        events = [
            {"event": "fit", "ts": 0.1, "seconds": 0.05, "iterations": 3,
             "converged": True},
            {"event": "trial", "ts": 0.2, "seconds": 0.02, "value": 0.9},
        ]
        registry = registry_from_events(events)
        assert registry.get("tmark_fit_seconds").count == 1
        assert registry.get("tmark_trial_value").count == 1
        assert registry.get("tmark_fits_total").value == 1.0
