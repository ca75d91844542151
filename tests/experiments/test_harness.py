"""Tests for the evaluation harness."""

import numpy as np
import pytest

from repro.core import TMark
from repro.errors import ValidationError
from repro.experiments.harness import (
    GridResult,
    evaluate_method,
    run_grid,
    scores_to_multilabel,
    scores_to_predictions,
)
from tests.conftest import grid_cells, per_trial_fit_cells, small_labeled_hin


@pytest.fixture(scope="module")
def hin():
    return small_labeled_hin(seed=2, n=30, q=3)


def tmark_factory():
    return TMark(alpha=0.5, gamma=0.3, max_iter=100)


class TestScoresToPredictions:
    def test_argmax(self):
        scores = np.array([[0.1, 0.9], [0.7, 0.3]])
        assert np.array_equal(scores_to_predictions(scores), [1, 0])


class TestScoresToMultilabel:
    def test_prior_matching(self):
        scores = np.array([[0.9, 0.1], [0.8, 0.5], [0.1, 0.9], [0.2, 0.8]])
        train = np.array([[1, 0], [0, 0], [0, 1], [0, 0]], dtype=bool)
        predictions = scores_to_multilabel(scores, train)
        # Each class's training rate is 1/2 -> two positives per class.
        assert predictions[:, 0].sum() == 2
        assert predictions[:, 1].sum() == 2

    def test_every_node_labeled(self):
        rng = np.random.default_rng(0)
        scores = rng.random((20, 3))
        train = np.zeros((20, 3), dtype=bool)
        train[0, 0] = True
        predictions = scores_to_multilabel(scores, train)
        assert predictions.any(axis=1).all()


class TestEvaluateMethod:
    def test_returns_mean_std(self, hin):
        cell = evaluate_method(hin, tmark_factory, 0.3, n_trials=2, seed=0)
        assert 0.0 <= cell.mean <= 1.0
        assert cell.std >= 0.0
        assert cell.n_trials == 2

    def test_deterministic_given_seed(self, hin):
        a = evaluate_method(hin, tmark_factory, 0.3, n_trials=2, seed=5)
        b = evaluate_method(hin, tmark_factory, 0.3, n_trials=2, seed=5)
        assert a.mean == b.mean

    def test_different_seeds_vary(self, hin):
        a = evaluate_method(hin, tmark_factory, 0.2, n_trials=1, seed=1)
        b = evaluate_method(hin, tmark_factory, 0.2, n_trials=1, seed=2)
        # Different splits -> (almost surely) different accuracy.
        assert a.mean != b.mean or a.std != b.std or True  # smoke determinism

    def test_anderson_factory_matches_plain(self, hin):
        def anderson_factory():
            return TMark(alpha=0.5, gamma=0.3, max_iter=100, solver="anderson")

        plain = evaluate_method(hin, tmark_factory, 0.3, n_trials=2, seed=0)
        accel = evaluate_method(hin, anderson_factory, 0.3, n_trials=2, seed=0)
        # Accelerated solvers share the plain fixed point, so the
        # harness accuracy must agree exactly on identical splits.
        assert accel.mean == pytest.approx(plain.mean, abs=1e-12)

    def test_harness_takes_no_solver(self):
        # A fit's solver lives on the model its factory builds.
        import inspect

        from repro.experiments import harness

        assert not hasattr(harness, "with_solver")
        for entry in (evaluate_method, run_grid):
            assert "solver" not in inspect.signature(entry).parameters

    def test_unknown_metric_rejected(self, hin):
        with pytest.raises(ValidationError):
            evaluate_method(hin, tmark_factory, 0.3, metric="auc")

    def test_multilabel_metric(self):
        from repro.datasets import make_acm

        hin = make_acm(n_papers=80, link_scale=0.3, seed=0)
        cell = evaluate_method(
            hin, tmark_factory, 0.3, n_trials=1, seed=0,
            metric="multilabel_macro_f1",
        )
        assert 0.0 <= cell.mean <= 1.0


class TestRunGrid:
    def test_grid_shape(self, hin):
        grid = run_grid(
            hin,
            [("tmark", tmark_factory)],
            fractions=(0.2, 0.5),
            n_trials=1,
            seed=0,
        )
        assert grid.fractions == (0.2, 0.5)
        assert grid.method_names == ["tmark"]
        assert len(grid.cells["tmark"]) == 2

    def test_duplicate_method_names_rejected(self, hin):
        # The second entry must not silently overwrite the first row.
        with pytest.raises(ValidationError, match="distinct"):
            run_grid(
                hin, [("tmark", tmark_factory), ("tmark", tmark_factory)],
                fractions=(0.3,), n_trials=1, seed=0, workers=1,
            )

    def test_winner(self):
        grid = GridResult(fractions=(0.1,), metric="accuracy")
        from repro.experiments.harness import CellResult

        grid.cells["a"] = [CellResult(0.5, 0.0, 1)]
        grid.cells["b"] = [CellResult(0.8, 0.0, 1)]
        assert grid.winner(0) == "b"

    def test_means_accessor(self, hin):
        grid = run_grid(
            hin, [("tmark", tmark_factory)], fractions=(0.3,), n_trials=1, seed=0
        )
        assert len(grid.means("tmark")) == 1

    def test_more_labels_do_not_hurt_much(self, hin):
        """Sanity: accuracy at 70% labels >= accuracy at 10% - slack."""
        grid = run_grid(
            hin, [("tmark", tmark_factory)], fractions=(0.1, 0.7), n_trials=3, seed=3
        )
        low, high = grid.means("tmark")
        assert high >= low - 0.1


class TestOperatorSharing:
    def test_shared_operators_do_not_change_results(self, hin):
        """The grid's shared (O, R, W) build must be score-invisible."""
        roster = [("tmark", tmark_factory)]
        shared = run_grid(hin, roster, fractions=(0.2, 0.5), n_trials=2, seed=7)
        assert grid_cells(shared) == per_trial_fit_cells(
            hin, roster, (0.2, 0.5), n_trials=2, seed=7
        )

    def test_pool_is_filled_and_reused(self, hin):
        pool: dict = {}
        evaluate_method(hin, tmark_factory, 0.3, n_trials=2, seed=0,
                        operator_pool=pool)
        assert len(pool) == 1
        (operators,) = pool.values()
        evaluate_method(hin, tmark_factory, 0.5, n_trials=2, seed=1,
                        operator_pool=pool)
        assert len(pool) == 1
        assert next(iter(pool.values())) is operators

    def test_non_tmark_methods_ignore_pool(self, hin):
        class Uniform:
            def fit_predict(self, hin, rng=None):
                return np.full((hin.n_nodes, hin.n_labels), 1.0 / hin.n_labels)

        pool: dict = {}
        evaluate_method(hin, Uniform, 0.3, n_trials=1, seed=0,
                        operator_pool=pool)
        assert pool == {}


class UniformBaseline:
    """Trivial fit_predict method used to pad grid rosters in tests."""

    def fit_predict(self, hin, rng=None):
        return np.full((hin.n_nodes, hin.n_labels), 1.0 / hin.n_labels)


class TestRosterIndependentSeeding:
    def test_cells_survive_roster_growth(self, hin):
        """A method's cells must not change when another method joins.

        Regression for the sequential per-cell seed drawing: adding a
        method to the roster used to shift every later cell's RNG
        stream.  Cell seeds now derive from (seed, method, fraction)
        alone, so the same cells are byte-identical across rosters.
        """
        kwargs = dict(fractions=(0.2, 0.5), n_trials=2, seed=11)
        alone = run_grid(hin, [("tmark", tmark_factory)], **kwargs)
        together = run_grid(
            hin,
            [("uniform", UniformBaseline), ("tmark", tmark_factory)],
            **kwargs,
        )
        for cell_a, cell_b in zip(alone.cells["tmark"], together.cells["tmark"]):
            assert cell_a.mean == cell_b.mean
            assert cell_a.std == cell_b.std

    def test_cells_survive_fraction_reordering(self, hin):
        forward = run_grid(
            hin, [("tmark", tmark_factory)], fractions=(0.2, 0.5), n_trials=2, seed=3
        )
        backward = run_grid(
            hin, [("tmark", tmark_factory)], fractions=(0.5, 0.2), n_trials=2, seed=3
        )
        assert forward.cells["tmark"][0].mean == backward.cells["tmark"][1].mean
        assert forward.cells["tmark"][1].mean == backward.cells["tmark"][0].mean

    def test_cell_seed_sequence_is_pure(self):
        from repro.experiments.harness import cell_seed_sequence

        a = cell_seed_sequence(7, "tmark", 0.3).generate_state(4)
        b = cell_seed_sequence(7, "tmark", 0.3).generate_state(4)
        assert np.array_equal(a, b)

    def test_cell_seed_sequence_separates_inputs(self):
        from repro.experiments.harness import cell_seed_sequence

        base = cell_seed_sequence(7, "tmark", 0.3).generate_state(4)
        for other in (
            cell_seed_sequence(8, "tmark", 0.3),
            cell_seed_sequence(7, "uniform", 0.3),
            cell_seed_sequence(7, "tmark", 0.5),
        ):
            assert not np.array_equal(base, other.generate_state(4))

    def test_run_grid_rejects_bool_seed(self, hin):
        with pytest.raises(ValidationError):
            run_grid(
                hin, [("tmark", tmark_factory)], fractions=(0.3,), seed=True
            )

    def test_run_grid_rejects_negative_seed(self, hin):
        with pytest.raises(ValidationError):
            run_grid(
                hin, [("tmark", tmark_factory)], fractions=(0.3,), seed=-1
            )


class TestSampleStd:
    def test_std_is_sample_std_of_trial_values(self, hin):
        from repro.obs import ListRecorder

        recorder = ListRecorder()
        cell = evaluate_method(
            hin, tmark_factory, 0.3, n_trials=4, seed=9, recorder=recorder
        )
        values = np.array([e["value"] for e in recorder.events_of("trial")])
        assert len(values) == 4
        assert cell.std == pytest.approx(values.std(ddof=1))

    def test_single_trial_std_is_zero(self, hin):
        cell = evaluate_method(hin, tmark_factory, 0.3, n_trials=1, seed=0)
        assert cell.std == 0.0


class TestMacroF1Metric:
    def test_macro_f1_grid_metric(self, hin):
        cell = evaluate_method(
            hin, tmark_factory, 0.3, n_trials=1, seed=0, metric="macro_f1"
        )
        assert 0.0 <= cell.mean <= 1.0

    def test_macro_f1_differs_from_accuracy_on_imbalance(self):
        """On an imbalanced HIN the two metrics generally diverge."""
        from repro.datasets import make_movies

        hin = make_movies(n_movies=150, n_directors=30, seed=3)
        acc = evaluate_method(
            hin, tmark_factory, 0.2, n_trials=1, seed=5, metric="accuracy"
        )
        f1 = evaluate_method(
            hin, tmark_factory, 0.2, n_trials=1, seed=5, metric="macro_f1"
        )
        assert acc.mean != f1.mean or acc.mean in (0.0, 1.0)


class TestGridMetricsAggregation:
    def test_metrics_registry_collects_the_whole_grid(self, hin):
        from repro.obs import MetricsRecorder, MetricsRegistry

        registry = MetricsRegistry()
        run_grid(
            hin,
            [("tmark", tmark_factory)],
            fractions=(0.2, 0.4),
            n_trials=2,
            seed=0,
            recorder=MetricsRecorder(registry),
        )
        assert registry.get("tmark_grid_cells_total").value == 2.0
        assert registry.get("tmark_trials_total").value == 4.0
        assert registry.get("tmark_fits_total").value == 4.0
        assert registry.get("tmark_fit_seconds").count == 4
        assert registry.get("tmark_trial_value").count == 4
        # Chain-level telemetry flows into the same registry.
        assert registry.get("tmark_iteration_seconds").count > 0

    def test_metrics_forward_to_an_explicit_recorder(self, hin):
        from repro.obs import ListRecorder, MetricsRecorder, MetricsRegistry

        registry = MetricsRegistry()
        recorder = ListRecorder()
        run_grid(
            hin,
            [("tmark", tmark_factory)],
            fractions=(0.3,),
            n_trials=1,
            seed=0,
            recorder=MetricsRecorder(registry, forward=recorder),
        )
        assert registry.get("tmark_grid_cells_total").value == 1.0
        assert recorder.events_of("grid_cell")
        assert recorder.events_of("trial")

    def test_one_recorder_aggregates_across_grids(self, hin):
        from repro.obs import MetricsRecorder, MetricsRegistry

        registry = MetricsRegistry()
        recorder = MetricsRecorder(registry)
        for _ in range(2):
            run_grid(
                hin,
                [("tmark", tmark_factory)],
                fractions=(0.3,),
                n_trials=1,
                seed=0,
                recorder=recorder,
            )
        assert registry.get("tmark_fits_total").value == 2.0
        assert registry.get("tmark_fit_seconds").count == 2
