"""Counter / Gauge / Histogram registry fed by trace events.

The JSONL trace layer answers "what happened in this run"; this module
answers "how is the system doing" — the ``/metrics`` registry of the
prediction daemon and the aggregate of a grid.  A
:class:`MetricsRegistry` holds named :class:`Counter`, :class:`Gauge`
and :class:`Histogram` instruments (histograms bin on fixed edges) and
renders Prometheus-style text exposition.

:class:`MetricsRecorder` adapts the registry to the
:class:`~repro.obs.recorder.Recorder` protocol: install it (directly,
ambiently, or as ``run_grid(..., recorder=...)``) and the instrumented
hot paths feed the registry without knowing it exists.  Events can
optionally be forwarded to a second recorder so metrics and JSONL
tracing compose in one run.  Events are the only input, so a registry
is rebuilt from a trace with
``registry_from_events(read_trace(path))`` rather than persisted.
"""

from __future__ import annotations

import bisect
import math
import re

from repro.errors import ValidationError
from repro.obs.recorder import Recorder, read_iteration

#: Wall-clock histogram edges (seconds) shared by all *_seconds metrics.
DEFAULT_TIME_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Metric-value histogram edges for scores in [0, 1].
DEFAULT_VALUE_BUCKETS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

#: Iteration-count histogram edges.
DEFAULT_ITERATION_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)

#: Request-latency histogram edges (seconds) for the serving tier —
#: finer sub-millisecond resolution than the fit-time buckets, because
#: snapshot reads answer in microseconds-to-milliseconds.
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Prometheus metric-name grammar.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _metric_suffix(text: str) -> str:
    """Sanitise free text (an endpoint path) into a metric-name chunk."""
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", str(text)).strip("_")
    return cleaned or "unknown"


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValidationError(
            f"metric name must match {_NAME_RE.pattern!r}, got {name!r}"
        )
    return name


def _format_number(value: float) -> str:
    """Exposition-format a number (integral floats without the dot).

    Non-finite values render as the Prometheus text-format spellings
    ``+Inf`` / ``-Inf`` / ``NaN`` — Python's ``inf``/``nan`` reprs are
    rejected by Prometheus parsers.
    """
    as_float = float(value)
    if math.isnan(as_float):
        return "NaN"
    if math.isinf(as_float):
        return "+Inf" if as_float > 0 else "-Inf"
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str):
        self.name = _check_name(name)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValidationError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self.value += float(amount)

    def expose(self) -> list[str]:
        """Prometheus exposition lines for this counter."""
        return [f"# TYPE {self.name} counter", f"{self.name} {_format_number(self.value)}"]


class Gauge:
    """A last-value-wins instantaneous measurement."""

    __slots__ = ("name", "value", "updated")
    kind = "gauge"

    def __init__(self, name: str):
        self.name = _check_name(name)
        self.value = 0.0
        self.updated = False

    def set(self, value: float) -> None:
        """Record the current value (NaN is ignored: last *value* wins).

        A NaN observation carries no information and, once stored, would
        poison every later ``set_max`` comparison (all comparisons with
        NaN are false), so it is deterministically dropped.
        """
        value = float(value)
        if math.isnan(value):
            return
        self.value = value
        self.updated = True

    def set_max(self, value: float) -> None:
        """Record ``value`` only if it exceeds the current one.

        NaN never exceeds anything and is dropped (see :meth:`set`).
        """
        value = float(value)
        if math.isnan(value):
            return
        if not self.updated or value > self.value:
            self.set(value)

    def expose(self) -> list[str]:
        """Prometheus exposition lines for this gauge.

        A gauge that was never ``set`` has no measurement to report:
        exposing its placeholder 0.0 would publish a stale zero (e.g. a
        gauge whose only observations were NaN), so it is omitted.
        """
        if not self.updated:
            return []
        return [f"# TYPE {self.name} gauge", f"{self.name} {_format_number(self.value)}"]


class Histogram:
    """Fixed-bucket histogram: observations bin exactly.

    ``edges`` are the finite upper bounds (strictly increasing); an
    implicit ``+Inf`` bucket catches the remainder, so ``counts`` has
    ``len(edges) + 1`` entries.
    """

    __slots__ = ("name", "edges", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, edges=DEFAULT_TIME_BUCKETS):
        self.name = _check_name(name)
        edges = tuple(float(e) for e in edges)
        if not edges:
            raise ValidationError(f"histogram {name} needs at least one bucket edge")
        if any(not math.isfinite(e) for e in edges):
            raise ValidationError(f"histogram {name} edges must be finite")
        if any(b <= a for a, b in zip(edges, edges[1:])):
            raise ValidationError(
                f"histogram {name} edges must be strictly increasing, got {edges}"
            )
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    def expose(self) -> list[str]:
        """Prometheus exposition: cumulative ``_bucket`` lines + sum/count."""
        lines = [f"# TYPE {self.name} histogram"]
        cumulative = 0
        for edge, count in zip(self.edges, self.counts):
            cumulative += count
            lines.append(
                f'{self.name}_bucket{{le="{_format_number(edge)}"}} {cumulative}'
            )
        lines.append(f'{self.name}_bucket{{le="+Inf"}} {self.count}')
        lines.append(f"{self.name}_sum {_format_number(self.sum)}")
        lines.append(f"{self.name}_count {self.count}")
        return lines


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instruments are created on first access (``counter(name)`` etc.) and
    keep insertion order.  Asking for an existing name with a different
    instrument kind — or a histogram with different edges — raises
    :class:`~repro.errors.ValidationError` rather than silently forking
    the metric.
    """

    def __init__(self):
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        """Registered metric names in insertion order."""
        return list(self._metrics)

    def get(self, name: str):
        """The instrument registered under ``name`` (KeyError if absent)."""
        return self._metrics[name]

    def _get_or_create(self, name: str, factory, kind: str):
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValidationError(
                f"metric {name!r} is a {metric.kind}, not a {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(self, name: str, edges=DEFAULT_TIME_BUCKETS) -> Histogram:
        """Get or create the histogram ``name`` with fixed ``edges``."""
        metric = self._get_or_create(name, lambda: Histogram(name, edges), "histogram")
        if metric.edges != tuple(float(e) for e in edges):
            raise ValidationError(
                f"histogram {name!r} already registered with edges "
                f"{metric.edges}, requested {tuple(edges)}"
            )
        return metric

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every registered instrument."""
        lines = []
        for metric in self._metrics.values():
            lines.extend(metric.expose())
        return "\n".join(lines) + ("\n" if lines else "")


#: Event types counted one per event, as ``{event: counter name}``.
#: Together with the conditional counters in
#: :meth:`MetricsRecorder._observe` (``frozen_columns``,
#: ``unhealthy_chains``, ``unconverged_fits``, ``unconverged_reconverges``,
#: ``operator_builds``, ``chunked_operator_builds``)
#: this is the one place that decides which events a ``tmark_*_total``
#: counter counts.
EVENT_COUNTERS = {
    "fit": "tmark_fits_total",
    "trial": "tmark_trials_total",
    "grid_cell": "tmark_grid_cells_total",
    "chain_iteration": "tmark_chain_iterations_total",
    "invariant_probe": "tmark_invariant_probes_total",
    "solver_step": "tmark_solver_steps_total",
    "solver_restart": "tmark_solver_restarts_total",
    "shard_dispatch": "tmark_shard_dispatches_total",
    "boundary_exchange": "tmark_boundary_exchanges_total",
    "delta_apply": "tmark_delta_batches_total",
    "reconverge": "tmark_reconverges_total",
    "operator_patch": "tmark_operator_patches_total",
    "store_save": "tmark_store_saves_total",
    "store_open": "tmark_store_opens_total",
}


class MetricsRecorder(Recorder):
    """A :class:`Recorder` sink that folds events into a registry.

    Every known event type updates a fixed set of ``tmark_*``-prefixed
    instruments (durations into shared-edge histograms, counts into
    counters, level-style measurements into gauges).  Every counter is
    derived from the events alone — one per event for the types in
    :data:`EVENT_COUNTERS`, plus a few conditional ones — and is created
    on its first counted event, so a registry folded from a trace
    (:func:`registry_from_events`) holds the same counters as the live
    one.  Unknown event types still count in ``tmark_events_total`` so
    nothing is silently dropped.

    ``forward`` optionally chains a second recorder (e.g. a
    :class:`~repro.obs.trace.JsonlTraceRecorder`): events pass through
    after being observed, so one run can feed metrics and a trace
    simultaneously.
    """

    def __init__(self, registry: MetricsRegistry | None = None, *, forward=None):
        self.registry = MetricsRegistry() if registry is None else registry
        self.forward = forward
        if forward is not None:
            # Probe emission follows the forwarded sink's preference so
            # wrapping a probe-less tracer does not re-enable probes.
            self.probes = bool(getattr(forward, "probes", True))

    def emit(self, event: str, **fields) -> None:
        self._observe(event, fields)
        if self.forward is not None and self.forward.enabled:
            self.forward.emit(event, **fields)

    # ------------------------------------------------------------------
    # Event -> instrument mapping
    # ------------------------------------------------------------------
    def _observe(self, event: str, fields: dict) -> None:
        registry = self.registry
        registry.counter("tmark_events_total").inc()
        counter = EVENT_COUNTERS.get(event)
        if counter is not None:
            registry.counter(counter).inc()
        seconds = fields.get("seconds")
        if event == "fit":
            registry.histogram("tmark_fit_seconds").observe(seconds or 0.0)
            registry.histogram(
                "tmark_fit_iterations", DEFAULT_ITERATION_BUCKETS
            ).observe(fields.get("iterations", 0))
            if not fields.get("converged", True):
                registry.counter("tmark_unconverged_fits_total").inc()
        elif event == "chain_iteration":
            iteration = read_iteration(fields)
            registry.histogram("tmark_iteration_seconds").observe(
                iteration.phase_seconds
            )
            registry.gauge("tmark_active_classes").set(iteration.n_active)
            if iteration.n_frozen:
                registry.counter("tmark_frozen_columns_total").inc(iteration.n_frozen)
        elif event == "trial":
            registry.histogram("tmark_trial_seconds").observe(seconds or 0.0)
            registry.histogram(
                "tmark_trial_value", DEFAULT_VALUE_BUCKETS
            ).observe(fields.get("value", 0.0))
        elif event == "grid_cell":
            registry.histogram("tmark_grid_cell_seconds").observe(seconds or 0.0)
            registry.gauge("tmark_last_cell_mean").set(fields.get("mean", 0.0))
        elif event == "operator_build":
            registry.histogram("tmark_operator_build_seconds").observe(
                float(fields.get("transition_seconds", 0.0))
                + float(fields.get("feature_seconds", 0.0))
            )
            # In-memory builds carry ``w_form``.  The out-of-core per-chunk
            # events carry ``operator`` instead; their build counts once,
            # through its ``build_chunked_operators`` span.
            if "w_form" in fields:
                registry.counter("tmark_operator_builds_total").inc()
        elif event == "delta_apply":
            registry.histogram("tmark_delta_apply_seconds").observe(seconds or 0.0)
            registry.counter("tmark_deltas_total").inc(fields.get("n_deltas", 0))
        elif event == "operator_patch":
            registry.histogram("tmark_operator_patch_seconds").observe(seconds or 0.0)
        elif event == "reconverge":
            registry.histogram("tmark_reconverge_seconds").observe(seconds or 0.0)
            registry.histogram(
                "tmark_reconverge_iterations", DEFAULT_ITERATION_BUCKETS
            ).observe(fields.get("iterations", 0))
            if not fields.get("converged", True):
                registry.counter("tmark_unconverged_reconverges_total").inc()
        elif event == "chain_health":
            status = fields.get("status", "healthy")
            registry.counter(f"tmark_chain_health_{status}_total").inc()
            if status != "healthy":
                registry.counter("tmark_unhealthy_chains_total").inc()
        elif event == "invariant_probe":
            registry.gauge("tmark_max_mass_drift").set_max(
                max(
                    float(fields.get("x_mass_drift", 0.0)),
                    float(fields.get("z_mass_drift", 0.0)),
                )
            )
            if fields.get("n_negative", 0):
                registry.counter("tmark_negative_entries_total").inc(
                    fields["n_negative"]
                )
        elif event == "pool_start":
            registry.gauge("tmark_pool_workers").set(fields.get("workers", 0))
            registry.counter("tmark_pools_total").inc()
        elif event == "cell_dispatch":
            registry.counter("tmark_cells_dispatched_total").inc()
        elif event == "cell_done":
            registry.counter("tmark_cells_merged_total").inc()
            registry.histogram("tmark_cell_worker_seconds").observe(seconds or 0.0)
        elif event == "http_request":
            endpoint = _metric_suffix(fields.get("endpoint", "unknown"))
            registry.counter(f"tmark_http_{endpoint}_requests_total").inc()
            registry.histogram(
                f"tmark_http_{endpoint}_seconds", DEFAULT_LATENCY_BUCKETS
            ).observe(seconds or 0.0)
            if int(fields.get("status", 200)) >= 400:
                registry.counter("tmark_http_errors_total").inc()
        elif event == "span":
            registry.counter("tmark_spans_total").inc()
            if "error" in fields:
                registry.counter("tmark_span_errors_total").inc()
            elif fields.get("name") == "build_chunked_operators":
                registry.counter("tmark_chunked_operator_builds_total").inc()
        elif event == "resource_sample":
            registry.gauge("tmark_rss_bytes").set(fields.get("rss_bytes", 0))
            registry.gauge("tmark_max_rss_bytes").set(
                fields.get("max_rss_bytes", 0)
            )
            registry.gauge("tmark_cpu_seconds").set(
                float(fields.get("cpu_user_seconds", 0.0))
                + float(fields.get("cpu_system_seconds", 0.0))
            )
            registry.gauge("tmark_gc_collections").set(
                fields.get("gc_collections", 0)
            )
            registry.gauge("tmark_threads").set(fields.get("n_threads", 0))
        elif event == "snapshot_swap":
            registry.counter("tmark_snapshot_swaps_total").inc()
            registry.gauge("tmark_snapshot_version").set(fields.get("version", 0))
            registry.histogram("tmark_snapshot_build_seconds").observe(seconds or 0.0)


def registry_from_events(events) -> MetricsRegistry:
    """Fold a parsed trace (``read_trace`` output) into a fresh registry."""
    recorder = MetricsRecorder()
    for event in events:
        fields = {k: v for k, v in event.items() if k not in ("event", "ts")}
        recorder.emit(event.get("event", "?"), **fields)
    return recorder.registry
