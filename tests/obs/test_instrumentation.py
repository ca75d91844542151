"""Trace-shape tests: what the instrumented hot paths actually emit."""

import numpy as np
import pytest

from repro.core import TMark
from repro.core.tmark import build_operators
from repro.datasets.synthetic import RelationSpec, make_synthetic_hin
from repro.hin.graph import HIN
from repro.obs import CHAIN_PHASES, ListRecorder, registry_from_events, use_recorder
from tests.conftest import small_labeled_hin


@pytest.fixture(scope="module")
def hin():
    return small_labeled_hin(seed=4, n=25, q=3)


def _fit(hin, recorder=None):
    model = TMark(alpha=0.7, gamma=0.4, max_iter=40)
    model.fit(hin, recorder=recorder)
    return model


class TestChainInstrumentation:
    def test_every_iteration_carries_all_five_phases(self, hin):
        recorder = ListRecorder()
        _fit(hin, recorder=recorder)
        iterations = recorder.events_of("chain_iteration")
        assert iterations
        for event in iterations:
            assert set(event["phases"]) == set(CHAIN_PHASES)
            assert all(seconds >= 0.0 for seconds in event["phases"].values())
            assert event["n_active"] >= 1

    def test_chain_class_reports_residual_and_frozen(self, hin):
        recorder = ListRecorder()
        model = _fit(hin, recorder=recorder)
        # Per-class data rides on the iteration event: no per-class events.
        assert not recorder.events_of("chain_class")
        iterations = recorder.events_of("chain_iteration")
        entries = []
        for event in iterations:
            assert len(event["class_index"]) == event["n_active"]
            entries += zip(event["class_index"], event["residual"], event["frozen"])
        assert {c for c, _, _ in entries} == set(range(hin.n_labels))
        # Every class's series matches its recorded history.
        for c, history in enumerate(model.result_.histories):
            series = [(r, f) for cc, r, f in entries if cc == c]
            assert [r for r, _ in series] == list(history.residuals)
            assert series[-1][1] == history.converged

    def test_fit_event_summarises_the_run(self, hin):
        recorder = ListRecorder()
        model = _fit(hin, recorder=recorder)
        (fit_event,) = recorder.events_of("fit")
        assert fit_event["n_nodes"] == hin.n_nodes
        assert fit_event["n_classes"] == hin.n_labels
        assert fit_event["iterations"] == max(
            h.n_iterations for h in model.result_.histories
        )
        assert fit_event["seconds"] > 0.0

    def test_operator_build_event_times_both_stages(self, hin):
        recorder = ListRecorder()
        build_operators(hin, recorder=recorder)
        (event,) = recorder.events_of("operator_build")
        assert event["n_nodes"] == hin.n_nodes
        assert event["transition_seconds"] >= 0.0
        assert event["feature_seconds"] >= 0.0

    def test_operator_build_reports_w_form(self, hin):
        nonnegative = HIN(
            hin.tensor,
            hin.relation_names,
            np.abs(hin.features),
            hin.label_matrix,
            hin.label_names,
            node_names=hin.node_names,
        )
        n, d = hin.n_nodes, hin.n_features
        for graph, kwargs, form, rank in (
            (nonnegative, {}, "factored", d + 1),
            (hin, {}, "dense", n),  # signed features: no exact factoring
            (nonnegative, {"similarity_top_k": 3}, "sparse", n),
        ):
            recorder = ListRecorder()
            build_operators(graph, recorder=recorder, **kwargs)
            (event,) = recorder.events_of("operator_build")
            (build_span,) = [
                e for e in recorder.events_of("span") if e["name"] == "build_operators"
            ]
            for record in (event, build_span):
                assert (record["w_form"], record["w_rank"]) == (form, rank)

    def test_operator_build_reports_r_layout(self, hin):
        many_relations = make_synthetic_hin(
            120,
            ["a", "b", "c", "d"],
            [RelationSpec(f"r{k}", n_links=12, homophily=0.5) for k in range(20)],
            seed=23,
        )
        for graph, layout in ((hin, "rows"), (many_relations, "columns")):
            recorder = ListRecorder()
            operators = build_operators(graph, recorder=recorder)
            assert operators.r_tensor.layout == layout
            (event,) = recorder.events_of("operator_build")
            (build_span,) = [
                e for e in recorder.events_of("span") if e["name"] == "build_operators"
            ]
            assert event["r_layout"] == build_span["r_layout"] == layout

    def test_counters_accumulate(self, hin):
        recorder = ListRecorder()
        _fit(hin, recorder=recorder)
        registry = registry_from_events(recorder.events)
        assert registry.get("tmark_fits_total").value == 1
        assert registry.get("tmark_chain_iterations_total").value == len(
            recorder.events_of("chain_iteration")
        )

    def test_disabled_recorder_receives_nothing(self, hin):
        recorder = ListRecorder(enabled=False)
        _fit(hin, recorder=recorder)
        assert recorder.events == []

    def test_tracing_never_changes_scores(self, hin):
        """Instrumentation is purely observational: bit-identical fits."""
        recorder = ListRecorder()
        traced = _fit(hin, recorder=recorder)
        untraced = _fit(hin)
        assert np.array_equal(
            traced.result_.node_scores, untraced.result_.node_scores
        )
        assert np.array_equal(
            traced.result_.relation_scores, untraced.result_.relation_scores
        )

    def test_ambient_recorder_is_picked_up(self, hin):
        recorder = ListRecorder()
        with use_recorder(recorder):
            _fit(hin)
        assert recorder.events_of("chain_iteration")

    def test_explicit_recorder_overrides_ambient(self, hin):
        ambient, explicit = ListRecorder(), ListRecorder()
        with use_recorder(ambient):
            _fit(hin, recorder=explicit)
        assert ambient.events == []
        assert explicit.events_of("fit")


class TestProbeInstrumentation:
    def test_chain_health_event_per_class(self, hin):
        recorder = ListRecorder()
        model = _fit(hin, recorder=recorder)
        health_events = recorder.events_of("chain_health")
        assert len(health_events) == hin.n_labels
        assert [e["class_index"] for e in health_events] == list(range(hin.n_labels))
        assert [e["label"] for e in health_events] == list(hin.label_names)
        for event, history in zip(health_events, model.result_.histories):
            assert event["converged"] == history.converged
            assert event["n_iterations"] == history.n_iterations

    def test_fit_event_carries_tol(self, hin):
        recorder = ListRecorder()
        model = _fit(hin, recorder=recorder)
        (fit_event,) = recorder.events_of("fit")
        assert fit_event["tol"] == model.tol

    def test_one_probe_per_iteration_with_clean_invariants(self, hin):
        recorder = ListRecorder()
        _fit(hin, recorder=recorder)
        probes = recorder.events_of("invariant_probe")
        assert len(probes) == len(recorder.events_of("chain_iteration"))
        registry = registry_from_events(recorder.events)
        assert registry.get("tmark_invariant_probes_total").value == len(probes)
        for probe in probes:
            # Columns live on the simplex: mass drift at float epsilon,
            # no negative entries anywhere.
            assert probe["x_mass_drift"] < 1e-9
            assert probe["z_mass_drift"] < 1e-9
            assert probe["n_negative"] == 0
            assert probe["x_min"] >= 0.0 and probe["z_min"] >= 0.0
            assert 0.0 <= probe["o_dangling_share"] <= 1.0
            assert 0.0 <= probe["r_unlinked_share"] <= 1.0

    def test_probes_off_keeps_phase_timings(self, hin):
        recorder = ListRecorder(probes=False)
        _fit(hin, recorder=recorder)
        assert recorder.events_of("invariant_probe") == []
        assert recorder.events_of("chain_health")  # verdicts are not probes
        iterations = recorder.events_of("chain_iteration")
        assert iterations
        assert all(set(e["phases"]) == set(CHAIN_PHASES) for e in iterations)

    def test_probes_never_change_scores(self, hin):
        probed, unprobed = ListRecorder(probes=True), ListRecorder(probes=False)
        with_probes = _fit(hin, recorder=probed)
        without = _fit(hin, recorder=unprobed)
        plain = _fit(hin)
        for other in (without, plain):
            assert np.array_equal(
                with_probes.result_.node_scores, other.result_.node_scores
            )
            assert np.array_equal(
                with_probes.result_.relation_scores, other.result_.relation_scores
            )


class TestHarnessInstrumentation:
    def test_trial_and_grid_cell_events(self, hin):
        from repro.experiments.harness import run_grid

        recorder = ListRecorder()
        run_grid(
            hin,
            [("tmark", lambda: TMark(alpha=0.5, gamma=0.3, max_iter=50))],
            fractions=(0.2, 0.4),
            n_trials=2,
            seed=0,
            recorder=recorder,
        )
        trials = recorder.events_of("trial")
        cells = recorder.events_of("grid_cell")
        assert len(cells) == 2
        assert len(trials) == 4
        assert {t["method"] for t in trials} == {"tmark"}
        assert {c["fraction"] for c in cells} == {0.2, 0.4}
        for cell in cells:
            assert cell["n_trials"] == 2
            assert cell["seconds"] > 0.0
        # Chain-level events from inside the trials land in the same trace.
        assert recorder.events_of("chain_iteration")
