"""Smoke + shape tests for the experiment runners (small scales).

Full-scale qualitative assertions (who wins, crossovers) live in the
benchmark suite; here each runner must execute at a reduced scale and
produce structurally valid reports.
"""

import numpy as np
import pytest

from repro.experiments import runners

SMALL = {"scale": 0.3, "seed": 0}


class TestRankingRunners:
    def test_table2(self):
        report = runners.run_table2(**SMALL)
        assert report.experiment_id == "table2"
        rankings = report.data["rankings"]
        assert set(rankings) == {"DB", "DM", "AI", "IR"}
        assert all(len(v) == 5 for v in rankings.values())
        assert 0.0 <= report.data["precision"] <= 1.0
        assert "Table 2" in report.text

    def test_table5(self):
        report = runners.run_table5(**SMALL)
        rankings = report.data["rankings"]
        assert len(rankings) == 5
        assert all(len(v) == 10 for v in rankings.values())

    def test_table9_10(self):
        report = runners.run_table9_10(**SMALL)
        for tagset in ("tagset1", "tagset2"):
            rankings = report.data[tagset]["rankings"]
            assert set(rankings) == {"Scene", "Object"}
            assert all(len(v) == 12 for v in rankings.values())
            assert 0 <= report.data[tagset]["overlap"] <= 12


class TestGridRunners:
    def test_table3_small(self):
        report = runners.run_table3(
            scale=0.3, seed=0, n_trials=1, fractions=(0.3,), fast=True
        )
        grid = report.data["grid"]
        assert len(grid.method_names) == 9
        assert all(0 <= cell.mean <= 1 for cells in grid.cells.values() for cell in cells)

    def test_table4_small(self):
        report = runners.run_table4(
            scale=0.3, seed=0, n_trials=1, fractions=(0.3,), fast=True
        )
        assert len(report.data["grid"].method_names) == 9

    def test_table8_small(self):
        report = runners.run_table8(scale=0.3, seed=0, n_trials=1, fractions=(0.3,))
        grid = report.data["grid"]
        assert grid.method_names == ["Tagset1", "Tagset2"]

    def test_table11_small(self):
        report = runners.run_table11(
            scale=0.3, seed=0, n_trials=1, fractions=(0.3,), fast=True
        )
        grid = report.data["grid"]
        assert grid.metric == "multilabel_macro_f1"
        assert len(grid.method_names) == 9


class TestOtherRunners:
    def test_table6_7(self):
        report = runners.run_table6_7(**SMALL)
        assert len(report.data["tagset1_homophily"]) == 41
        assert len(report.data["tagset2_homophily"]) == 41

    def test_fig5(self):
        report = runners.run_fig5(**SMALL)
        assert len(report.data["relation_names"]) == 6
        for series in report.data["series"].values():
            assert len(series) == 6
            assert abs(sum(series) - 1.0) < 1e-6

    @pytest.mark.parametrize("runner_name", ["run_fig6", "run_fig7"])
    def test_alpha_sweeps(self, runner_name):
        report = getattr(runners, runner_name)(scale=0.3, seed=0, n_trials=1)
        assert len(report.data["accuracy"]) == len(report.data["alphas"])
        assert all(0 <= a <= 1 for a in report.data["accuracy"])

    @pytest.mark.parametrize("runner_name", ["run_fig8", "run_fig9"])
    def test_gamma_sweeps(self, runner_name):
        report = getattr(runners, runner_name)(scale=0.3, seed=0, n_trials=1)
        assert report.data["gammas"][0] == 0.0
        assert report.data["gammas"][-1] == 1.0
        assert len(report.data["accuracy"]) == 11

    def test_fig10(self):
        report = runners.run_fig10(**SMALL)
        curves = report.data["curves"]
        assert set(curves) == {"DBLP", "Movies", "NUS", "ACM"}
        for name, curve in curves.items():
            assert curve[-1] < 1e-6, f"{name} chain did not converge"
        assert all(report.data["converged"].values())

    def test_reports_are_printable(self):
        report = runners.run_table2(**SMALL)
        text = str(report)
        assert report.experiment_id in text


class TestDeterminism:
    def test_same_seed_same_report(self):
        a = runners.run_table2(scale=0.3, seed=9)
        b = runners.run_table2(scale=0.3, seed=9)
        assert a.data["rankings"] == b.data["rankings"]

    def test_different_seed_changes_data(self):
        a = runners.run_fig10(scale=0.3, seed=1)
        b = runners.run_fig10(scale=0.3, seed=2)
        assert not np.allclose(
            a.data["curves"]["DBLP"][:3], b.data["curves"]["DBLP"][:3]
        )


class TestAuxiliaryRunners:
    def test_extensions_grid(self):
        report = runners.run_extensions(
            scale=0.3, seed=0, n_trials=1, fractions=(0.3,)
        )
        grid = report.data["grid"]
        assert grid.method_names == [
            "T-Mark", "wvRN+RL", "WeightedWvRN", "ZooBP", "GNetMine",
            "RankClass",
        ]
        assert all(
            0 <= cell.mean <= 1 for cells in grid.cells.values() for cell in cells
        )

    def test_extensions_passes_workers_to_the_grid(self, monkeypatch):
        seen = []
        real_run_grid = runners.run_grid

        def spy(*args, workers=1, **kwargs):
            seen.append(workers)
            return real_run_grid(*args, **kwargs)

        monkeypatch.setattr(runners, "run_grid", spy)
        runners.run_extensions(
            scale=0.3, seed=0, n_trials=1, fractions=(0.3,), workers=2
        )
        assert seen == [2]

    def test_dataset_summary(self):
        report = runners.run_dataset_summary(scale=0.3, seed=0)
        assert set(report.data) == {
            "DBLP", "Movies", "NUS-Tagset1", "NUS-Tagset2", "ACM",
        }
        for stats in report.data.values():
            assert stats["n_nodes"] > 0
            assert stats["n_links"] > 0
        # The calibration contrast is visible in the summary itself.
        assert (
            report.data["NUS-Tagset1"]["mean_homophily"]
            > report.data["NUS-Tagset2"]["mean_homophily"]
        )
