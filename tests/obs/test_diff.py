"""Tests for the trace regression comparator (repro.obs.diff)."""

import math

import pytest

from repro.obs import (
    TraceSummary,
    diff_summaries,
    diff_traces,
    format_trace_diff,
)
from repro.obs.diff import COUNT_FIELDS, TIME_FIELDS


def summary(**overrides) -> TraceSummary:
    base = TraceSummary(
        phase_totals={"propagate": 0.10, "normalize": 0.05},
        n_iterations=20,
        n_fits=2,
        fit_seconds=0.16,
        trial_seconds=0.2,
    )
    for name, value in overrides.items():
        setattr(base, name, value)
    return base


class TestDiffSummaries:
    def test_identical_summaries_pass(self):
        diff = diff_summaries(summary(), summary())
        assert diff.passed
        assert diff.regressions == []
        assert diff.improvements == []
        assert len(diff.entries) == 2 + len(TIME_FIELDS) + len(COUNT_FIELDS)

    def test_time_regression_past_threshold_and_floor(self):
        diff = diff_summaries(summary(), summary(fit_seconds=0.32))
        (entry,) = diff.regressions
        assert entry.name == "fit_seconds"
        assert entry.kind == "time"
        assert entry.rel_change == pytest.approx(1.0)
        assert not diff.passed

    def test_sub_floor_time_jitter_is_ignored(self):
        # 3x relative growth, but the absolute delta is microseconds.
        old = summary(patch_seconds=1e-5)
        new = summary(patch_seconds=3e-5)
        diff = diff_summaries(old, new)
        assert diff.passed
        entry = next(e for e in diff.entries if e.name == "patch_seconds")
        assert not entry.regressed and not entry.improved

    def test_time_floor_is_configurable(self):
        old = summary(patch_seconds=1e-5)
        new = summary(patch_seconds=3e-5)
        diff = diff_summaries(old, new, time_floor=1e-6)
        assert not diff.passed

    def test_phase_totals_are_compared(self):
        new = summary(phase_totals={"propagate": 0.30, "normalize": 0.05})
        diff = diff_summaries(summary(), new)
        (entry,) = diff.regressions
        assert entry.name == "phase:propagate"

    def test_phase_present_on_one_side_only(self):
        new = summary(phase_totals={"propagate": 0.10, "extra": 0.5})
        diff = diff_summaries(summary(), new)
        by_name = {e.name: e for e in diff.entries}
        assert math.isinf(by_name["phase:extra"].rel_change)
        assert by_name["phase:extra"].regressed
        # normalize dropped to zero entirely -> improvement.
        assert by_name["phase:normalize"].improved

    def test_count_regression_needs_at_least_one_whole_unit(self):
        diff = diff_summaries(summary(), summary(n_iterations=30))
        (entry,) = diff.regressions
        assert entry.name == "n_iterations"
        assert entry.kind == "count"

    def test_count_within_threshold_is_ok(self):
        diff = diff_summaries(summary(), summary(n_iterations=22))
        assert diff.passed

    def test_improvement_is_not_a_failure(self):
        diff = diff_summaries(summary(), summary(n_iterations=10))
        assert diff.passed
        (entry,) = diff.improvements
        assert entry.name == "n_iterations"

    def test_both_zero_is_nan_and_ok(self):
        entry = next(
            e
            for e in diff_summaries(summary(), summary()).entries
            if e.name == "reconverge_seconds"
        )
        assert math.isnan(entry.rel_change)
        assert not entry.regressed and not entry.improved

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            diff_summaries(summary(), summary(), threshold=-0.1)


class TestDiffTraces:
    @staticmethod
    def _events(fit_seconds):
        return [
            {"event": "chain_iteration", "ts": 0.0, "phases": {"propagate": fit_seconds}},
            {"event": "fit", "ts": 0.1, "seconds": fit_seconds, "iterations": 1,
             "converged": True},
        ]

    def test_trace_diffed_against_itself_passes(self):
        events = self._events(0.05)
        diff = diff_traces(events, events)
        assert diff.passed
        assert diff.regressions == []

    def test_slower_trace_fails(self):
        diff = diff_traces(self._events(0.05), self._events(0.5))
        assert not diff.passed
        names = {e.name for e in diff.regressions}
        assert "fit_seconds" in names and "phase:propagate" in names


class TestPerFitMedians:
    @staticmethod
    def _events(fit_times, operator_seconds=0.002):
        events = []
        for seconds in fit_times:
            events += [
                {"event": "operator_build", "transition_seconds": operator_seconds},
                {"event": "chain_iteration", "phases": {"propagate": seconds / 2}},
                {"event": "chain_iteration", "phases": {"propagate": seconds / 2}},
                {"event": "fit", "seconds": seconds},
            ]
        return events

    def test_summary_records_each_fit_window(self):
        from repro.obs import summarize_trace

        summary = summarize_trace(self._events([0.01, 0.03]))
        assert summary.per_fit == [
            {"operator_seconds": 0.002, "phase:propagate": 0.01, "fit_seconds": 0.01},
            {"operator_seconds": 0.002, "phase:propagate": 0.03, "fit_seconds": 0.03},
        ]

    def test_one_slow_fit_does_not_move_the_median(self):
        steady = self._events([0.010] * 5)
        blip = self._events([0.010] * 4 + [0.050])
        diff = diff_traces(steady, blip)
        assert diff.passed and diff.per_fit == (5, 5)
        entry = next(e for e in diff.entries if e.name == "fit_seconds")
        assert entry.old == entry.new == pytest.approx(0.010)
        assert "per-fit medians (5 vs 5 fits)" in format_trace_diff(diff)

    def test_slower_fits_still_regress(self):
        diff = diff_traces(self._events([0.010] * 5), self._events([0.020] * 5))
        names = {e.name for e in diff.regressions}
        assert names == {"fit_seconds", "phase:propagate"}

    def test_counts_and_other_times_stay_totals(self):
        diff = diff_traces(self._events([0.010] * 5), self._events([0.010] * 5))
        entry = next(e for e in diff.entries if e.name == "n_fits")
        assert entry.old == entry.new == 5

    def test_single_fit_traces_compare_totals(self):
        diff = diff_traces(self._events([0.010]), self._events([0.010] * 5))
        assert diff.per_fit is None
        names = {e.name for e in diff.regressions}
        assert {"fit_seconds", "n_fits"} <= names


class TestFormatTraceDiff:
    def test_pass_report(self):
        text = format_trace_diff(diff_summaries(summary(), summary()))
        assert text.startswith("trace diff")
        assert "threshold 20%" in text
        assert text.endswith("0 regression(s), 0 improvement(s): PASS")

    def test_fail_report_flags_the_dimension(self):
        text = format_trace_diff(diff_summaries(summary(), summary(fit_seconds=0.64)))
        assert "REGRESSED" in text
        assert text.endswith("1 regression(s), 0 improvement(s): FAIL")

    def test_new_from_zero_renders_as_new(self):
        text = format_trace_diff(
            diff_summaries(summary(), summary(reconverge_seconds=0.5))
        )
        assert "new" in text
