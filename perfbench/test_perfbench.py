"""Tests for the benchmark's own logic.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py

The end-to-end tests run real workloads (about two minutes in total).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, run, workloads  # noqa: E402
from perfbench.inputs import label_mask, make_hin, workload_rng  # noqa: E402
from perfbench.layers import LAYER_TABLE  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_reported_metrics():
    end_to_end = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert end_to_end == harness.END_TO_END_UNITS
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert per_layer == {name: row[:2] for name, row in LAYER_TABLE.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_every_name_is_well_formed():
    names = (
        list(harness.END_TO_END_UNITS)
        + list(LAYER_TABLE)
        + list(workloads.WORKLOADS)
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_same_seed_same_inputs_other_seed_other_inputs():
    def inputs(seed):
        hin = make_hin(
            workloads.DENSE_FIT.spec, workload_rng("dense_fit", seed, "graph")
        )
        mask = label_mask(hin.n_nodes, 0.2, hin.y, workload_rng("dense_fit", seed, "masks"))
        serve_hin, _, serve_mask = workloads.serve_graph(seed)
        batches = workloads.serve_batches(serve_hin, seed, 3)
        return hin, mask, serve_mask, batches

    def same(a, b):
        hin_a, mask_a, serve_a, batches_a = a
        hin_b, mask_b, serve_b, batches_b = b
        return (
            all(np.array_equal(x, y) for x, y in zip(hin_a.tensor.coords, hin_b.tensor.coords))
            and np.array_equal(hin_a.features, hin_b.features)
            and np.array_equal(hin_a.label_matrix, hin_b.label_matrix)
            and np.array_equal(mask_a, mask_b)
            and np.array_equal(serve_a, serve_b)
            and batches_a == batches_b
        )

    first = inputs(5)
    assert same(first, inputs(5))
    other = inputs(6)
    hin_a, mask_a, serve_a, batches_a = first
    hin_b, mask_b, serve_b, batches_b = other
    assert not np.array_equal(hin_a.features, hin_b.features)
    assert not np.array_equal(mask_a, mask_b)
    assert not np.array_equal(serve_a, serve_b)
    assert batches_a != batches_b


def test_p90_needs_ten_samples_beyond_it():
    assert harness.percentile(range(100), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        harness.percentile(range(99), 90)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_emits_every_end_to_end_metric(workload):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == harness.END_TO_END_UNITS
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert f"{name} = " in proc.stdout  # the human-readable line


def test_traced_run_emits_every_layer_metric():
    proc = _run("--workload", "dense_fit", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = _result(proc.stdout)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: row[0] for name, row in LAYER_TABLE.items()
    }
    assert result["metrics"]["shard.scores_identical"]["value"] == 1.0


def test_injected_failing_op_lowers_ok_frac_and_fails_the_command(monkeypatch, capsys):
    calls = []
    real = workloads.fit_problems

    def failing_once(result):
        calls.append(1)
        return ["injected failure"] if len(calls) == 5 else real(result)

    monkeypatch.setattr(workloads, "fit_problems", failing_once)
    allowed = os.sched_getaffinity(0)
    try:
        code = run.main(["--workload", "dense_fit", "--seed", "3", "--seconds", "1", "--trace", "0"])
    finally:
        os.sched_setaffinity(0, allowed)
    result = _result(capsys.readouterr().out)
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(
        1 - 1 / result["attempted"]
    )


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "dense_fit", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
