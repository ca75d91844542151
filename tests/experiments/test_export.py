"""Tests for report export (JSON/CSV/TXT)."""

import csv
import json

import numpy as np
import pytest

from repro.experiments.export import grid_to_csv, report_to_json, save_report
from repro.experiments.harness import CellResult, GridResult
from repro.experiments.report import ExperimentReport


@pytest.fixture
def grid():
    grid = GridResult(fractions=(0.1, 0.5), metric="accuracy")
    grid.cells["T-Mark"] = [CellResult(0.9, 0.01, 2), CellResult(0.95, 0.02, 2)]
    grid.cells["ICA"] = [CellResult(0.8, 0.03, 2), CellResult(0.85, 0.01, 2)]
    return grid


@pytest.fixture
def report(grid):
    return ExperimentReport(
        "table_test",
        "A test grid",
        "rendered text",
        data={"grid": grid, "note": "hello", "values": [1, 2]},
    )


class TestReportToJson:
    def test_round_trips_through_json(self, report):
        payload = json.loads(report_to_json(report))
        assert payload["experiment_id"] == "table_test"
        assert payload["data"]["note"] == "hello"
        assert payload["data"]["grid"]["fractions"] == [0.1, 0.5]
        assert payload["data"]["grid"]["cells"]["T-Mark"][0]["mean"] == 0.9

    def test_numpy_values_converted(self):
        report = ExperimentReport(
            "x", "t", "", data={"arr": np.arange(3), "f": np.float64(1.5)}
        )
        payload = json.loads(report_to_json(report))
        assert payload["data"]["arr"] == [0, 1, 2]
        assert payload["data"]["f"] == 1.5


def reference_jsonable(value):
    """A recursive pre-pass to JSON-safe values, the reference encoding."""
    if isinstance(value, dict):
        return {str(key): reference_jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [reference_jsonable(val) for val in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    return value


class TestReportBytes:
    def test_hook_encodes_like_a_recursive_prepass(self, grid):
        data = {
            "grid": grid,
            "rankings": {"a": [("x", np.float64(0.25)), ("y", 0.5)]},
            "counts": {"n": np.int64(3), "ok": np.bool_(True), "f": np.float32(0.5)},
            "curve": np.linspace(0.0, 1.0, 4),
            "nested": [{"nan": float("nan"), "none": None}, (1, "two")],
        }
        report = ExperimentReport("bytes", "t", "text", data=data)
        grid_dict = json.loads(report_to_json(report))["data"]["grid"]
        expected = {
            "experiment_id": "bytes",
            "title": "t",
            "text": "text",
            "data": reference_jsonable({**data, "grid": grid_dict}),
        }
        assert report_to_json(report) == json.dumps(expected, indent=2)


class TestGridToCsv:
    def test_csv_layout(self, grid, tmp_path):
        path = grid_to_csv(grid, tmp_path / "grid.csv")
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == [
            "fraction", "T-Mark_mean", "T-Mark_std", "ICA_mean", "ICA_std",
        ]
        assert rows[1][0] == "0.1"
        assert float(rows[1][1]) == 0.9


class TestSaveReport:
    def test_writes_all_formats(self, report, tmp_path):
        written = save_report(report, tmp_path / "out")
        names = {path.name for path in written}
        assert names == {"table_test.txt", "table_test.json", "table_test.csv"}
        for path in written:
            assert path.exists() and path.stat().st_size > 0

    def test_gridless_report_skips_csv(self, tmp_path):
        report = ExperimentReport("fig_test", "t", "text", data={"x": 1})
        written = save_report(report, tmp_path)
        assert {path.suffix for path in written} == {".txt", ".json"}


class TestCliSaveDir:
    def test_run_with_save_dir(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        out = tmp_path / "reports"
        assert main(
            ["run", "table2", "--scale", "0.3", "--save-dir", str(out)]
        ) == 0
        assert (out / "table2.txt").exists()
        assert (out / "table2.json").exists()
        assert "wrote" in capsys.readouterr().out
