"""Aggregate a JSONL trace into a per-phase time breakdown.

Backs the ``python -m repro.experiments trace-summary`` command: given
the events of one traced run, compute where the iteration time went
(the five chain phases), how much of the measured fit wall-clock the
phase timings account for, and the harness-level trial / grid-cell
telemetry.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

from repro.obs.recorder import CHAIN_PHASES, read_iteration


@dataclass
class TraceSummary:
    """Aggregated view of one trace (see :func:`summarize_trace`)."""

    n_events: int = 0
    event_counts: dict[str, int] = field(default_factory=dict)
    phase_totals: dict[str, float] = field(default_factory=dict)
    n_iterations: int = 0
    fit_seconds: float = 0.0
    n_fits: int = 0
    operator_seconds: float = 0.0
    w_forms: dict[str, int] = field(default_factory=dict)
    n_frozen_events: int = 0
    trial_seconds: float = 0.0
    grid_seconds: float = 0.0
    n_delta_batches: int = 0
    n_deltas: int = 0
    patch_seconds: float = 0.0
    reconverge_iterations: int = 0
    reconverge_seconds: float = 0.0
    health_statuses: dict[str, int] = field(default_factory=dict)
    n_probes: int = 0
    max_mass_drift: float = 0.0
    min_probe_entry: float | None = None
    pool_workers: int = 0
    n_dispatched: int = 0
    n_pool_done: int = 0
    pool_cell_seconds: float = 0.0
    pool_worker_pids: set = field(default_factory=set)
    n_solver_steps: int = 0
    n_solver_restarts: int = 0
    solver_seconds: float = 0.0
    solver_names: set = field(default_factory=set)
    n_spans: int = 0
    span_seconds: float = 0.0
    span_names: set = field(default_factory=set)
    trace_ids: set = field(default_factory=set)
    n_resource_samples: int = 0
    max_rss_bytes: int = 0
    n_requests: int = 0
    request_seconds: float = 0.0
    #: ``request_seconds`` split as the daemon times each request:
    #: ``parse`` (URL split, body read and decode), ``handle`` (the
    #: endpoint function) and ``encode`` (the reply body's bytes).
    request_parse_seconds: float = 0.0
    request_handle_seconds: float = 0.0
    request_encode_seconds: float = 0.0
    #: One record per ``fit`` event: its ``fit_seconds``, plus the
    #: ``operator_seconds`` and ``phase:<name>`` times traced since the
    #: previous fit event (what ``trace-diff`` takes per-fit medians of).
    per_fit: list = field(default_factory=list)

    @property
    def phase_seconds(self) -> float:
        """Total seconds attributed to the chain phases."""
        return sum(self.phase_totals.values())

    @property
    def phase_coverage(self) -> float:
        """Phase-attributed share of the measured fit wall-clock.

        ``nan`` when the trace contains no ``fit`` events.
        """
        if self.fit_seconds <= 0.0:
            return float("nan")
        return self.phase_seconds / self.fit_seconds

    def to_dict(self) -> dict:
        """A JSON-serialisable view (sets become sorted lists, NaN → None).

        Backs ``trace-summary --json``; includes the derived
        ``phase_seconds`` / ``phase_coverage`` so machine consumers need
        no re-derivation.
        """
        data = {}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            data[spec.name] = sorted(value) if isinstance(value, set) else value
        data["phase_seconds"] = self.phase_seconds
        coverage = self.phase_coverage
        data["phase_coverage"] = None if math.isnan(coverage) else coverage
        return data


def summarize_trace(events) -> TraceSummary:
    """Fold a sequence of trace event dicts into a :class:`TraceSummary`."""
    summary = TraceSummary(phase_totals={name: 0.0 for name in CHAIN_PHASES})
    window: dict[str, float] = {}
    for event in events:
        kind = event.get("event", "?")
        summary.n_events += 1
        summary.event_counts[kind] = summary.event_counts.get(kind, 0) + 1
        if kind == "chain_iteration":
            iteration = read_iteration(event)
            summary.n_iterations += 1
            for name, seconds in iteration.phases.items():
                summary.phase_totals[name] = (
                    summary.phase_totals.get(name, 0.0) + seconds
                )
                key = f"phase:{name}"
                window[key] = window.get(key, 0.0) + seconds
            summary.n_frozen_events += iteration.n_frozen
            summary.solver_seconds += iteration.solver_seconds
        elif kind == "fit":
            summary.n_fits += 1
            summary.fit_seconds += float(event.get("seconds", 0.0))
            window["fit_seconds"] = float(event.get("seconds", 0.0))
            summary.per_fit.append(window)
            window = {}
        elif kind == "operator_build":
            seconds = float(event.get("transition_seconds", 0.0))
            seconds += float(event.get("feature_seconds", 0.0))
            summary.operator_seconds += seconds
            window["operator_seconds"] = window.get("operator_seconds", 0.0) + seconds
            if "w_form" in event:
                form = f"{event['w_form']} rank {event.get('w_rank', '?')}"
                summary.w_forms[form] = summary.w_forms.get(form, 0) + 1
        elif kind == "trial":
            summary.trial_seconds += float(event.get("seconds", 0.0))
        elif kind == "grid_cell":
            summary.grid_seconds += float(event.get("seconds", 0.0))
        elif kind == "delta_apply":
            summary.n_delta_batches += 1
            summary.n_deltas += int(event.get("n_deltas", 0))
        elif kind == "operator_patch":
            summary.patch_seconds += float(event.get("seconds", 0.0))
        elif kind == "reconverge":
            summary.reconverge_iterations += int(event.get("iterations", 0))
            summary.reconverge_seconds += float(event.get("seconds", 0.0))
        elif kind == "chain_health":
            status = str(event.get("status", "?"))
            summary.health_statuses[status] = (
                summary.health_statuses.get(status, 0) + 1
            )
        elif kind == "invariant_probe":
            summary.n_probes += 1
            summary.max_mass_drift = max(
                summary.max_mass_drift,
                float(event.get("x_mass_drift", 0.0)),
                float(event.get("z_mass_drift", 0.0)),
            )
            entry_min = min(
                float(event.get("x_min", float("inf"))),
                float(event.get("z_min", float("inf"))),
            )
            if math.isfinite(entry_min):
                summary.min_probe_entry = (
                    entry_min
                    if summary.min_probe_entry is None
                    else min(summary.min_probe_entry, entry_min)
                )
        elif kind == "pool_start":
            summary.pool_workers = max(
                summary.pool_workers, int(event.get("workers", 0))
            )
        elif kind == "cell_dispatch":
            summary.n_dispatched += 1
        elif kind == "solver_step":
            summary.n_solver_steps += 1
            if "solver" in event:
                summary.solver_names.add(str(event["solver"]))
        elif kind == "solver_restart":
            summary.n_solver_restarts += 1
            if "solver" in event:
                summary.solver_names.add(str(event["solver"]))
        elif kind == "cell_done":
            summary.n_pool_done += 1
            summary.pool_cell_seconds += float(event.get("seconds", 0.0))
            if "worker" in event:
                summary.pool_worker_pids.add(int(event["worker"]))
        elif kind == "span":
            summary.n_spans += 1
            summary.span_seconds += float(event.get("seconds", 0.0))
            summary.span_names.add(str(event.get("name", "?")))
            if "trace_id" in event:
                summary.trace_ids.add(str(event["trace_id"]))
        elif kind == "resource_sample":
            summary.n_resource_samples += 1
            summary.max_rss_bytes = max(
                summary.max_rss_bytes,
                int(event.get("rss_bytes", 0)),
                int(event.get("max_rss_bytes", 0)),
            )
        elif kind == "http_request":
            summary.n_requests += 1
            summary.request_seconds += float(event.get("seconds", 0.0))
            summary.request_parse_seconds += float(event.get("parse_seconds", 0.0))
            summary.request_handle_seconds += float(event.get("handle_seconds", 0.0))
            summary.request_encode_seconds += float(event.get("encode_seconds", 0.0))
    return summary


def format_trace_summary(summary: TraceSummary) -> str:
    """Render a :class:`TraceSummary` as a fixed-width breakdown table."""
    lines = [f"trace summary — {summary.n_events} events"]
    if summary.event_counts:
        lines.append("")
        lines.append("event".ljust(18) + "count".rjust(8))
        lines.append("-" * 26)
        for name in sorted(summary.event_counts):
            lines.append(name.ljust(18) + str(summary.event_counts[name]).rjust(8))
    phase_seconds = summary.phase_seconds
    if summary.n_iterations:
        lines.append("")
        lines.append(
            f"chain phases over {summary.n_iterations} iterations"
        )
        lines.append("phase".ljust(18) + "seconds".rjust(10) + "share".rjust(8))
        lines.append("-" * 36)
        for name, seconds in sorted(
            summary.phase_totals.items(), key=lambda kv: -kv[1]
        ):
            share = seconds / phase_seconds if phase_seconds > 0 else 0.0
            lines.append(
                name.ljust(18) + f"{seconds:10.4f}" + f"{share:7.1%}".rjust(8)
            )
        lines.append("total".ljust(18) + f"{phase_seconds:10.4f}")
    if summary.n_fits:
        coverage = summary.phase_coverage
        coverage_text = "n/a" if math.isnan(coverage) else f"{coverage:.1%}"
        lines.append(
            f"fit wall-clock: {summary.fit_seconds:.4f}s over "
            f"{summary.n_fits} fit(s); phase coverage {coverage_text}"
        )
    if summary.operator_seconds:
        lines.append(f"operator builds: {summary.operator_seconds:.4f}s")
    if summary.w_forms:
        forms = ", ".join(f"{form} x{n}" for form, n in sorted(summary.w_forms.items()))
        lines.append(f"feature walk W: {forms}")
    if summary.trial_seconds:
        lines.append(
            f"harness trials: {summary.event_counts.get('trial', 0)} "
            f"({summary.trial_seconds:.4f}s)"
        )
    if summary.grid_seconds:
        lines.append(
            f"grid cells: {summary.event_counts.get('grid_cell', 0)} "
            f"({summary.grid_seconds:.4f}s)"
        )
    if summary.n_delta_batches:
        lines.append(
            f"streaming: {summary.n_deltas} deltas in "
            f"{summary.n_delta_batches} batch(es); operator patches "
            f"{summary.patch_seconds:.4f}s; reconvergence "
            f"{summary.reconverge_iterations} iteration(s) "
            f"({summary.reconverge_seconds:.4f}s)"
        )
    if summary.pool_workers:
        lines.append(
            f"parallel pool: {summary.pool_workers} worker(s) "
            f"({len(summary.pool_worker_pids)} distinct pids); "
            f"{summary.n_pool_done}/{summary.n_dispatched} cells merged "
            f"({summary.pool_cell_seconds:.4f}s of worker wall-clock)"
        )
    if summary.n_solver_steps or summary.n_solver_restarts:
        names = ", ".join(sorted(summary.solver_names)) or "?"
        lines.append(
            f"solver ({names}): {summary.n_solver_steps} accepted step(s), "
            f"{summary.n_solver_restarts} restart(s) "
            f"({summary.solver_seconds:.4f}s)"
        )
    if summary.n_spans:
        names = ", ".join(sorted(summary.span_names))
        lines.append(
            f"spans: {summary.n_spans} across {len(summary.trace_ids)} "
            f"trace(s) ({names}); {summary.span_seconds:.4f}s span-attributed"
        )
    if summary.n_resource_samples:
        lines.append(
            f"resource samples: {summary.n_resource_samples}; peak RSS "
            f"{summary.max_rss_bytes / 1e6:.1f} MB"
        )
    if summary.n_requests:
        lines.append(
            f"http requests: {summary.n_requests} "
            f"({summary.request_seconds:.4f}s; parse "
            f"{summary.request_parse_seconds:.4f}s, handle "
            f"{summary.request_handle_seconds:.4f}s, encode "
            f"{summary.request_encode_seconds:.4f}s)"
        )
    if summary.n_frozen_events:
        lines.append(f"frozen-column events: {summary.n_frozen_events}")
    if summary.health_statuses:
        lines.append(
            "chain health: "
            + ", ".join(
                f"{status}={count}"
                for status, count in sorted(summary.health_statuses.items())
            )
        )
    if summary.n_probes:
        min_entry = (
            "n/a"
            if summary.min_probe_entry is None
            else f"{summary.min_probe_entry:.1e}"
        )
        lines.append(
            f"invariant probes: {summary.n_probes}; max simplex drift "
            f"{summary.max_mass_drift:.1e}; min entry {min_entry}"
        )
    return "\n".join(lines)
