"""Tests for trace aggregation and its text rendering."""

import math

from repro.obs import CHAIN_PHASES, format_trace_summary, summarize_trace


def _sample_events():
    return [
        {"event": "operator_build", "transition_seconds": 0.2, "feature_seconds": 0.1},
        {
            "event": "chain_iteration",
            "t": 1,
            "phases": {
                "label_update": 0.01,
                "o_propagation": 0.04,
                "feature_walk": 0.02,
                "r_contraction": 0.03,
                "projection": 0.01,
            },
            "class_index": [0, 1],
            "residual": [0.0, 0.5],
            "frozen": [True, False],
        },
        {"event": "fit", "seconds": 0.12, "n_nodes": 30},
        {"event": "trial", "trial": 0, "seconds": 0.15},
        {"event": "grid_cell", "method": "tmark", "seconds": 0.3},
    ]


class TestSummarizeTrace:
    def test_folds_all_event_kinds(self):
        summary = summarize_trace(_sample_events())
        assert summary.n_events == 5
        assert summary.event_counts["chain_iteration"] == 1
        assert summary.n_iterations == 1
        assert summary.phase_totals["o_propagation"] == 0.04
        assert summary.n_frozen_events == 1
        assert summary.fit_seconds == 0.12
        assert summary.operator_seconds == 0.30000000000000004
        assert summary.trial_seconds == 0.15
        assert summary.grid_seconds == 0.3

    def test_phase_seconds_and_coverage(self):
        summary = summarize_trace(_sample_events())
        assert summary.phase_seconds == 0.11
        assert abs(summary.phase_coverage - 0.11 / 0.12) < 1e-12

    def test_coverage_is_nan_without_fits(self):
        summary = summarize_trace([])
        assert math.isnan(summary.phase_coverage)
        assert summary.phase_seconds == 0.0

    def test_all_chain_phases_pre_zeroed(self):
        summary = summarize_trace([])
        assert set(summary.phase_totals) == set(CHAIN_PHASES)

    def test_folds_health_and_probe_events(self):
        events = _sample_events() + [
            {"event": "chain_health", "status": "healthy", "class_index": 0},
            {"event": "chain_health", "status": "stalled", "class_index": 1},
            {"event": "chain_health", "status": "healthy", "class_index": 2},
            {"event": "invariant_probe", "t": 1, "x_mass_drift": 1e-15,
             "z_mass_drift": 4e-12, "x_min": 1e-6, "z_min": 3e-5},
            {"event": "invariant_probe", "t": 2, "x_mass_drift": 2e-16,
             "z_mass_drift": 0.0, "x_min": 2e-6, "z_min": 5e-7},
        ]
        summary = summarize_trace(events)
        assert summary.health_statuses == {"healthy": 2, "stalled": 1}
        assert summary.n_probes == 2
        assert summary.max_mass_drift == 4e-12
        assert summary.min_probe_entry == 5e-7

    def test_counts_feature_walk_forms(self):
        factored = {"event": "operator_build", "w_form": "factored", "w_rank": 121}
        events = [
            factored,
            factored,
            {"event": "operator_build", "w_form": "dense", "w_rank": 400},
            # Per-chunk store builds carry no W form.
            {"event": "operator_build", "operator": "O", "seconds": 0.1},
        ]
        summary = summarize_trace(events)
        assert summary.w_forms == {"factored rank 121": 2, "dense rank 400": 1}
        text = format_trace_summary(summary)
        assert "feature walk W: dense rank 400 x1, factored rank 121 x2" in text
        assert summary.to_dict()["w_forms"] == summary.w_forms

    def test_iteration_lists_count_each_frozen_flag(self):
        phases = {"o_propagation": 0.01}
        events = [
            {"event": "chain_iteration", "t": 1, "phases": phases,
             "class_index": [0, 1, 2], "residual": [0.0, 0.5, 0.0],
             "frozen": [True, False, True]},
            {"event": "chain_iteration", "t": 2, "phases": phases,
             "class_index": [1], "residual": [0.0], "frozen": [True]},
        ]
        assert summarize_trace(events).n_frozen_events == 3

    def test_solver_seconds_come_from_the_iterations(self):
        phases = {"o_propagation": 0.01}
        events = [
            {"event": "chain_iteration", "t": 1, "phases": phases,
             "solver_seconds": 0.25},
            {"event": "solver_step", "t": 1, "class_index": 0, "solver": "anderson"},
            {"event": "solver_restart", "t": 1, "class_index": 1,
             "solver": "anderson", "reason": "safeguard"},
            {"event": "chain_iteration", "t": 2, "phases": phases,
             "solver_seconds": 0.5},
            {"event": "fit", "seconds": 1.0},
        ]
        summary = summarize_trace(events)
        assert summary.solver_seconds == 0.75
        assert (summary.n_solver_steps, summary.n_solver_restarts) == (1, 1)
        # Solver time is not a chain phase: coverage stays phase-only.
        assert summary.phase_seconds == 0.02
        assert "(0.7500s)" in format_trace_summary(summary)

    def test_request_seconds_are_split_into_parse_handle_encode(self):
        events = [
            {"event": "http_request", "endpoint": "/classify", "seconds": 0.004,
             "parse_seconds": 0.001, "handle_seconds": 0.0005,
             "encode_seconds": 0.002},
            {"event": "http_request", "endpoint": "/topk", "seconds": 0.002,
             "parse_seconds": 0.0005, "handle_seconds": 0.001,
             "encode_seconds": 0.0002},
        ]
        summary = summarize_trace(events)
        assert summary.n_requests == 2
        assert summary.request_seconds == 0.004 + 0.002
        assert summary.request_parse_seconds == 0.001 + 0.0005
        assert summary.request_handle_seconds == 0.0005 + 0.001
        assert summary.request_encode_seconds == 0.002 + 0.0002
        assert "parse 0.0015s, handle 0.0015s, encode 0.0022s" in (
            format_trace_summary(summary)
        )

    def test_probe_without_entry_fields_keeps_min_none(self):
        summary = summarize_trace([{"event": "invariant_probe", "t": 1}])
        assert summary.n_probes == 1
        assert summary.min_probe_entry is None


class TestFormatTraceSummary:
    def test_renders_breakdown_and_coverage(self):
        text = format_trace_summary(summarize_trace(_sample_events()))
        assert "5 events" in text
        assert "o_propagation" in text
        assert "phase coverage" in text
        assert "grid cells: 1" in text
        assert "fit".ljust(18) + "1".rjust(8) in text

    def test_empty_trace_renders(self):
        assert "0 events" in format_trace_summary(summarize_trace([]))

    def test_nan_coverage_renders_as_na(self):
        # A fit event that carries no wall-clock (e.g. a hand-built
        # trace) yields nan coverage; the report must say "n/a", not
        # crash on the percent format.
        summary = summarize_trace([{"event": "fit"}])
        text = format_trace_summary(summary)
        assert "phase coverage n/a" in text
        assert "nan" not in text

    def test_no_fits_means_no_coverage_line(self):
        text = format_trace_summary(
            summarize_trace([{"event": "trial", "seconds": 0.1}])
        )
        assert "phase coverage" not in text

    def test_renders_health_and_probe_lines(self):
        events = _sample_events() + [
            {"event": "chain_health", "status": "healthy"},
            {"event": "chain_health", "status": "diverging"},
            {"event": "invariant_probe", "x_mass_drift": 2e-15, "z_mass_drift": 0.0,
             "x_min": 1e-9, "z_min": 1e-8},
        ]
        text = format_trace_summary(summarize_trace(events))
        assert "chain health: diverging=1, healthy=1" in text
        assert "invariant probes: 1" in text
        assert "max simplex drift 2.0e-15" in text
        assert "min entry 1.0e-09" in text
