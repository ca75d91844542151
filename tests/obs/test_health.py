"""Tests for the convergence-diagnostics layer (repro.obs.health)."""

import math

import numpy as np
import pytest

from repro.core import TMark
from repro.obs import (
    ChainHealth,
    HEALTH_STATUSES,
    ListRecorder,
    chain_health,
    classify_residuals,
    estimate_decay_rate,
    format_health_report,
    health_from_history,
    trace_chain_health,
    worst_status,
)
from repro.obs.health import DECAY_BURN_IN, collect_residual_series
from tests.conftest import small_labeled_hin


def geometric(first: float, rate: float, n: int) -> list[float]:
    return [first * rate**t for t in range(n)]


@pytest.fixture(scope="module")
def hin():
    return small_labeled_hin(seed=4, n=25, q=3)


class TestEstimateDecayRate:
    def test_exact_on_geometric_series(self):
        series = geometric(1.0, 0.3, 12)
        assert estimate_decay_rate(series) == pytest.approx(0.3)

    def test_burn_in_excludes_transient(self):
        # Wild first two entries, clean 0.5 decay after.
        series = [17.0, 0.001] + geometric(1.0, 0.5, 10)
        assert estimate_decay_rate(series, burn_in=2) == pytest.approx(0.5)

    def test_short_series_is_nan(self):
        assert math.isnan(estimate_decay_rate([]))
        assert math.isnan(estimate_decay_rate([0.5]))

    def test_two_point_series_fits_without_burn_in(self):
        assert estimate_decay_rate([1.0, 0.25]) == pytest.approx(0.25)

    def test_zero_residuals_are_ignored(self):
        # A chain that hits an exact float fixed point records 0.0;
        # those entries carry no rate information.
        series = geometric(1.0, 0.4, 8) + [0.0]
        assert estimate_decay_rate(series) == pytest.approx(0.4)


class TestClassifyResiduals:
    def test_converged_is_healthy(self):
        assert classify_residuals([0.5, 1e-9], tol=1e-8) == "healthy"

    def test_decaying_but_unconverged_is_not_converged(self):
        # Geometric decay that ran out of budget: the chain is fine but
        # the fit is not — more iterations would finish the job.
        series = geometric(1.0, 0.5, 10)
        assert classify_residuals(series, tol=1e-12) == "not_converged"

    def test_growing_rate_is_diverging(self):
        series = geometric(0.1, 1.3, 10)
        assert classify_residuals(series, tol=1e-8) == "diverging"

    def test_growth_past_first_residual_is_diverging(self):
        # Rate ~1 overall but the series ends far above where it began.
        series = [0.1] * 5 + [0.2]
        assert classify_residuals(series, tol=1e-8) == "diverging"

    def test_bouncing_series_is_oscillating(self):
        series = [1.0, 0.1, 0.9, 0.1, 0.9, 0.1, 0.9]
        assert classify_residuals(series, tol=1e-8) == "oscillating"

    def test_constant_residual_is_oscillating(self):
        # A perfectly periodic chain: residual never moves, rate exactly
        # 1, zero up-moves — no progress ever made, so oscillating.
        assert classify_residuals([2.0] * 10, tol=1e-8) == "oscillating"

    def test_decayed_then_flat_is_stalled(self):
        # Real progress first, then the residual floors far below its
        # peak without reaching the tolerance (the flat stretch must
        # dominate the tail for the telescoped rate to read as ~1).
        series = geometric(1.0, 0.5, 4) + [0.0625] * 400
        assert classify_residuals(series, tol=1e-12) == "stalled"

    def test_empty_series_is_healthy(self):
        assert classify_residuals([], tol=1e-8) == "healthy"

    def test_explicit_converged_overrides(self):
        assert classify_residuals([2.0] * 10, tol=1e-8, converged=True) == "healthy"


class TestChainHealth:
    def test_projection_matches_geometric_arithmetic(self):
        rate, final, tol = 0.5, 1e-3, 1e-9
        verdict = chain_health(geometric(1e-3 / rate**9, rate, 10), tol)
        expected = math.ceil(math.log(tol / final) / math.log(rate))
        assert verdict.projected_iterations == expected
        assert verdict.decay_rate == pytest.approx(rate)
        assert verdict.spectral_gap == pytest.approx(1.0 - rate)

    def test_converged_projects_zero(self):
        verdict = chain_health([0.5, 1e-10], tol=1e-8)
        assert verdict.converged
        assert verdict.projected_iterations == 0
        assert verdict.ok

    def test_non_decaying_projects_never(self):
        verdict = chain_health([2.0] * 10, tol=1e-8)
        assert verdict.projected_iterations == -1
        assert not verdict.ok

    def test_event_round_trip(self):
        verdict = chain_health(
            geometric(1.0, 0.4, 8), tol=1e-8, class_index=2, label="DM", fit_index=3
        )
        assert "fit_index" not in verdict.as_event()
        assert ChainHealth.from_event(verdict.as_event(), fit_index=3) == verdict


class TestWorstStatus:
    def test_orders_by_severity(self):
        assert worst_status(["healthy", "stalled"]) == "stalled"
        assert worst_status(["oscillating", "stalled"]) == "oscillating"
        assert worst_status(["healthy", "diverging", "stalled"]) == "diverging"

    def test_empty_is_healthy(self):
        assert worst_status([]) == "healthy"

    def test_vocabulary(self):
        assert HEALTH_STATUSES == (
            "healthy",
            "not_converged",
            "stalled",
            "oscillating",
            "diverging",
        )

    def test_not_converged_ranks_between_healthy_and_stalled(self):
        assert worst_status(["healthy", "not_converged"]) == "not_converged"
        assert worst_status(["not_converged", "stalled"]) == "stalled"


class TestHealthFromFit:
    def test_healthy_verdicts_with_labels(self, hin):
        model = TMark(alpha=0.7, gamma=0.4, max_iter=200).fit(hin)
        verdicts = model.result_.health
        assert len(verdicts) == hin.n_labels
        assert all(v.ok for v in verdicts)
        assert [v.label for v in verdicts] == list(hin.label_names)

    def test_decay_rate_within_ten_percent_of_observed_ratio(self, hin):
        model = TMark(alpha=0.7, gamma=0.4, max_iter=200).fit(hin)
        for history, verdict in zip(
            model.result_.histories, model.result_.health
        ):
            residuals = [r for r in history.residuals[DECAY_BURN_IN:] if r > 0]
            observed = [b / a for a, b in zip(residuals, residuals[1:])]
            observed_rate = float(np.exp(np.mean(np.log(observed))))
            assert verdict.decay_rate == pytest.approx(observed_rate, rel=0.10)

    def test_matches_history_fold(self, hin):
        model = TMark(alpha=0.7, gamma=0.4, max_iter=200).fit(hin)
        for c, history in enumerate(model.result_.histories):
            direct = health_from_history(history, class_index=c)
            via_result = model.result_.health[c]
            assert direct.status == via_result.status
            assert direct.decay_rate == via_result.decay_rate


class TestPeriodicToy:
    """A restart-free chain on a 2-cycle must be flagged, not 'healthy'."""

    @staticmethod
    def _toy_hin():
        from repro.hin.graph import HIN
        from repro.tensor.sptensor import SparseTensor3

        tensor = SparseTensor3(
            np.array([1, 0]),
            np.array([0, 1]),
            np.array([0, 0]),
            np.array([1.0, 1.0]),
            shape=(2, 2, 1),
        )
        return HIN(
            tensor,
            relation_names=["link"],
            features=np.eye(2),
            label_matrix=np.array([[True], [False]]),
            label_names=["a"],
        )

    def test_alpha_zero_is_accepted(self):
        assert TMark(alpha=0.0).alpha == 0.0

    def test_periodic_chain_reports_unhealthy(self):
        model = TMark(alpha=0.0, gamma=0.0, update_labels=False, max_iter=30)
        with pytest.warns(RuntimeWarning, match="exhausted max_iter"):
            model.fit(self._toy_hin())
        (verdict,) = model.result_.health
        assert verdict.status in ("oscillating", "diverging")
        assert not verdict.converged
        assert verdict.projected_iterations == -1

    def test_restart_repairs_the_toy(self):
        model = TMark(alpha=0.5, gamma=0.0, update_labels=False, max_iter=100)
        model.fit(self._toy_hin())
        (verdict,) = model.result_.health
        assert verdict.ok



def _iteration(class_index, residual, frozen):
    """A one-class ``chain_iteration`` event."""
    return {
        "event": "chain_iteration", "class_index": [class_index],
        "residual": [residual], "frozen": [frozen],
    }

class TestTraceChainHealth:
    def test_prefers_emitted_chain_health_events(self, hin):
        recorder = ListRecorder()
        TMark(alpha=0.7, gamma=0.4, max_iter=200).fit(hin, recorder=recorder)
        verdicts = trace_chain_health(recorder.events)
        assert len(verdicts) == hin.n_labels
        assert all(v.label is not None for v in verdicts)

    def test_folds_raw_residual_series_without_health_events(self, hin):
        recorder = ListRecorder()
        model = TMark(alpha=0.7, gamma=0.4, max_iter=200).fit(hin, recorder=recorder)
        raw = [e for e in recorder.events if e["event"] != "chain_health"]
        verdicts = trace_chain_health(raw)
        assert len(verdicts) == hin.n_labels
        for verdict, history in zip(verdicts, model.result_.histories):
            assert verdict.converged == history.converged
            assert verdict.n_iterations == history.n_iterations

    @pytest.mark.parametrize("source", ["chain_health", "residuals"])
    def test_two_fits_are_numbered_by_their_fit_events(self, hin, source):
        recorder = ListRecorder()
        model = TMark(alpha=0.7, gamma=0.4, max_iter=200)
        model.fit(hin, recorder=recorder)
        model.fit(hin, recorder=recorder)
        events = recorder.events
        if source == "residuals":
            events = [e for e in events if e["event"] != "chain_health"]
        verdicts = trace_chain_health(events)
        q = hin.n_labels
        assert [v.fit_index for v in verdicts] == [0] * q + [1] * q
        assert [v.class_index for v in verdicts] == list(range(q)) * 2
        assert all("fit_index" not in e for e in recorder.events_of("chain_health"))

    def test_recorded_fit_index_field_is_ignored(self):
        events = [
            {"event": "chain_health", "fit_index": 0, "class_index": 0},
            {"event": "fit"},
            {"event": "chain_health", "fit_index": 0, "class_index": 0},
            {"event": "fit"},
        ]
        assert [v.fit_index for v in trace_chain_health(events)] == [0, 1]

    def test_groups_by_fit_event(self):
        events = [
            _iteration(0, 0.5, False),
            _iteration(0, 1e-9, True),
            {"event": "fit", "tol": 1e-8},
            _iteration(0, 2.0, False),
            {"event": "fit", "tol": 1e-8},
        ]
        verdicts = trace_chain_health(events)
        assert [v.fit_index for v in verdicts] == [0, 1]
        assert verdicts[0].converged
        assert not verdicts[1].converged

    def test_tol_fallback_for_unclosed_trace(self):
        events = [
            _iteration(0, 0.5, False),
            _iteration(0, 1e-5, True),
        ]
        (verdict,) = trace_chain_health(events, tol=1e-4)
        assert verdict.tol == 1e-4

    def test_collect_residual_series_shapes(self):
        events = [
            _iteration(0, 0.5, False),
            _iteration(1, 0.4, False),
            _iteration(0, 0.1, True),
            {"event": "fit", "tol": 1e-6},
        ]
        ((series, tol, frozen),) = collect_residual_series(events)
        assert series == {0: [0.5, 0.1], 1: [0.4]}
        assert tol == 1e-6
        assert frozen == {0: True, 1: False}

    def test_collect_residual_series_from_iteration_lists(self):
        events = [
            {"event": "chain_iteration", "t": 1, "class_index": [0, 1],
             "residual": [0.5, 0.4], "frozen": [False, False]},
            {"event": "chain_iteration", "t": 2, "class_index": [0],
             "residual": [0.1], "frozen": [True]},
            {"event": "fit", "tol": 1e-6},
            _iteration(0, 2.0, False),
            {"event": "fit", "tol": 1e-6},
        ]
        (first, second) = collect_residual_series(events)
        assert first == ({0: [0.5, 0.1], 1: [0.4]}, 1e-6, {0: True, 1: False})
        assert second == ({0: [2.0]}, 1e-6, {0: False})


class TestFormatHealthReport:
    def test_table_and_overall_line(self, hin):
        model = TMark(alpha=0.7, gamma=0.4, max_iter=200).fit(hin)
        text = format_health_report(model.result_.health)
        assert f"{hin.n_labels} chain(s)" in text
        assert "overall: healthy" in text
        for label in hin.label_names:
            assert label in text

    def test_empty_report(self):
        assert "0 chain(s)" in format_health_report([])

    def test_unhealthy_overall(self):
        verdicts = [
            chain_health(geometric(1.0, 0.5, 10), tol=1e-12),
            chain_health([2.0] * 10, tol=1e-8),
        ]
        text = format_health_report(verdicts)
        assert "overall: oscillating" in text
