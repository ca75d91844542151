"""Export experiment reports to machine-readable formats.

``python -m repro.experiments run table3 --save-dir out/`` writes, per
experiment, the rendered text plus a JSON payload (and a CSV for grid
experiments) so results can be post-processed without re-running.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.experiments.harness import GridResult
from repro.experiments.report import ExperimentReport
from repro.obs.trace import _json_default


def _report_default(value):
    """``json.dumps`` hook: grids as plain dicts, numpy values as JSON types."""
    if isinstance(value, GridResult):
        return {
            "fractions": list(value.fractions),
            "metric": value.metric,
            "cells": {
                name: [
                    {"mean": cell.mean, "std": cell.std, "n_trials": cell.n_trials}
                    for cell in cells
                ]
                for name, cells in value.cells.items()
            },
        }
    return _json_default(value)


def report_to_json(report: ExperimentReport) -> str:
    """Serialise a report (title, text, data) to a JSON string."""
    payload = {
        "experiment_id": report.experiment_id,
        "title": report.title,
        "text": report.text,
        "data": report.data,
    }
    return json.dumps(payload, indent=2, default=_report_default)


def grid_to_csv(grid: GridResult, path) -> Path:
    """Write a grid as CSV: one row per fraction, one column pair per method."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        header = ["fraction"]
        for name in grid.method_names:
            header += [f"{name}_mean", f"{name}_std"]
        writer.writerow(header)
        for f_idx, fraction in enumerate(grid.fractions):
            row = [fraction]
            for name in grid.method_names:
                cell = grid.cells[name][f_idx]
                row += [f"{cell.mean:.6f}", f"{cell.std:.6f}"]
            writer.writerow(row)
    return path


def save_report(report: ExperimentReport, directory) -> list[Path]:
    """Write ``<id>.txt``, ``<id>.json`` (and ``<id>.csv`` for grids).

    Returns the list of files written.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    text_path = directory / f"{report.experiment_id}.txt"
    text_path.write_text(str(report) + "\n", encoding="utf-8")
    written.append(text_path)
    json_path = directory / f"{report.experiment_id}.json"
    json_path.write_text(report_to_json(report) + "\n", encoding="utf-8")
    written.append(json_path)
    grid = report.data.get("grid")
    if isinstance(grid, GridResult):
        written.append(grid_to_csv(grid, directory / f"{report.experiment_id}.csv"))
    return written
