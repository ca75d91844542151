"""Chain-level observability: recorders, phase timers and JSONL traces.

T-Mark's cost is dominated by per-iteration tensor contractions whose
behaviour varies sharply with network structure and hyper-parameters.
This package provides the measurement substrate the perf work builds
on: a pluggable :class:`Recorder` protocol (``enabled``, ``probes``,
``emit``) with a zero-overhead no-op default, wall-clock
:class:`PhaseTimer` accumulators, and a JSONL trace writer emitting
structured events from the hot paths (``chain_iteration``,
``operator_build``, ``fit``, ``trial``, ``grid_cell``).  Events are the
only telemetry channel: the ``tmark_*_total`` counters of
:class:`MetricsRecorder` and the event table of ``trace-summary`` are
both derived from them, so a trace recomputes every number a live run
reported.  The per-iteration ``chain_iteration`` event has one reader,
:func:`read_iteration` (a :class:`ChainIteration`), shared by the
summary, health, metrics and Chrome readers.

Recorders are plumbed two ways:

* *ambiently* — :func:`use_recorder` installs a recorder for a scope
  (the CLI's ``--trace`` flag wraps a whole experiment run this way)
  and instrumented code picks it up via :func:`get_recorder`;
* *explicitly* — ``TMark.fit(..., recorder=...)``,
  ``build_operators(..., recorder=...)``,
  ``evaluate_method(..., recorder=...)`` and
  ``run_grid(..., recorder=...)`` accept an override.

The default recorder is :data:`NULL_RECORDER` (``enabled`` False): the
instrumented loops hoist that flag once per fit and skip every timer
read and event emission, so untraced runs pay only a handful of branch
checks per iteration (bounded <2% by
``benchmarks/bench_trace_overhead.py``).
"""

from repro.obs.chrome import chrome_trace, write_chrome_trace
from repro.obs.diff import (
    TraceDiff,
    TraceDiffEntry,
    diff_summaries,
    diff_traces,
    format_trace_diff,
)
from repro.obs.health import (
    ChainHealth,
    HEALTH_STATUSES,
    chain_health,
    classify_residuals,
    estimate_decay_rate,
    format_health_report,
    health_from_history,
    health_from_result,
    trace_chain_health,
    worst_status,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRecorder,
    MetricsRegistry,
    registry_from_events,
)
from repro.obs.recorder import (
    CHAIN_PHASES,
    EVENT_TYPES,
    ChainIteration,
    ListRecorder,
    NULL_RECORDER,
    NullRecorder,
    PhaseTimer,
    Recorder,
    get_recorder,
    read_iteration,
    use_recorder,
)
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
from repro.obs.summary import (
    TraceSummary,
    format_trace_summary,
    summarize_trace,
)
from repro.obs.trace import JsonlTraceRecorder, read_trace

__all__ = [
    "CHAIN_PHASES",
    "EVENT_TYPES",
    "HEALTH_STATUSES",
    "Recorder",
    "NullRecorder",
    "NULL_RECORDER",
    "ListRecorder",
    "PhaseTimer",
    "ChainIteration",
    "read_iteration",
    "get_recorder",
    "use_recorder",
    "JsonlTraceRecorder",
    "read_trace",
    "SpanContext",
    "span",
    "activate_span",
    "annotate_span",
    "current_span",
    "current_span_id",
    "new_span_id",
    "FlightRecorder",
    "ResourceSampler",
    "sample_process_stats",
    "chrome_trace",
    "write_chrome_trace",
    "TraceSummary",
    "summarize_trace",
    "format_trace_summary",
    "ChainHealth",
    "chain_health",
    "classify_residuals",
    "estimate_decay_rate",
    "format_health_report",
    "health_from_history",
    "health_from_result",
    "trace_chain_health",
    "worst_status",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRecorder",
    "MetricsRegistry",
    "registry_from_events",
    "TraceDiff",
    "TraceDiffEntry",
    "diff_summaries",
    "diff_traces",
    "format_trace_diff",
]
