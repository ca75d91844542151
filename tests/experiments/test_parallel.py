"""Tests for the grid's fork pool (repro.experiments.parallel).

The contract under test: ``workers=N`` buys wall-clock only — grid cell
scores, trial values and every deterministic metrics instrument must be
bit-identical to the serial path, worker failures must surface the
original traceback instead of hanging the grid, and the merged trace
must stay legible to the obs tooling (worker/cell tags, pool events).
"""

import numpy as np
import pytest

from repro.core import TMark
from repro.errors import ValidationError
from repro.experiments.harness import run_grid
from repro.experiments.parallel import CellSpec
from repro.forkpool import (
    WorkerError,
    available_workers,
    fork_available,
    openblas_threads,
)
from repro.hin import graph_fingerprint
from repro.obs import (
    ListRecorder,
    MetricsRecorder,
    MetricsRegistry,
    registry_from_events,
    summarize_trace,
)
from tests.conftest import grid_cells, per_trial_fit_cells, small_labeled_hin

pytestmark = [
    pytest.mark.skipif(
        not fork_available(), reason="parallel pool requires the fork start method"
    ),
    pytest.mark.usefixtures("no_child_processes"),
]

FRACTIONS = (0.3, 0.5)


@pytest.fixture(scope="module")
def hin():
    return small_labeled_hin(seed=7, n=40, q=3)


def methods():
    # Rebuilt per call: the lambdas must be fork-inherited, never pickled.
    return [
        ("TMark", lambda: TMark(alpha=0.8, gamma=0.4, max_iter=60)),
        ("TMark-low", lambda: TMark(alpha=0.5, gamma=0.2, max_iter=60)),
    ]


#: Counters a pooled grid moves by design: its own events and spans,
#: and one shared operator build per worker instead of one per grid.
POOL_COUNTERS = frozenset({
    "tmark_events_total", "tmark_spans_total", "tmark_pools_total",
    "tmark_cells_dispatched_total", "tmark_cells_merged_total",
    "tmark_operator_builds_total",
})


def instrument_state(registry):
    """``{name: value}``; a histogram's value is ``(counts, sum, count)``."""
    state = {}
    for name in registry.names():
        metric = registry.get(name)
        if metric.kind == "histogram":
            state[name] = (tuple(metric.counts), metric.sum, metric.count)
        else:
            state[name] = metric.value
    return state


def counters(registry, *, exclude=frozenset()):
    return {
        name: registry.get(name).value
        for name in registry.names()
        if registry.get(name).kind == "counter" and name not in exclude
    }


class TestBitIdentity:
    def test_grid_scores_identical(self, hin):
        serial = run_grid(hin, methods(), FRACTIONS, n_trials=2, seed=11)
        parallel = run_grid(
            hin, methods(), FRACTIONS, n_trials=2, seed=11, workers=2
        )
        assert parallel.fractions == serial.fractions
        assert parallel.method_names == serial.method_names
        assert grid_cells(parallel) == grid_cells(serial)

    def test_merged_metrics_match_serial(self, hin):
        def grid_metrics(workers):
            registry = MetricsRegistry()
            run_grid(
                hin, methods(), FRACTIONS, n_trials=2, seed=11,
                recorder=MetricsRecorder(registry), workers=workers,
            )
            return registry

        serial, parallel = grid_metrics(1), grid_metrics(2)
        # Value-carrying instruments fold the same events in the same
        # (spec) order, regardless of which process ran the cells: same
        # trials, scores, iteration counts, peak simplex drift and last
        # cell.
        for name in ("tmark_trial_value", "tmark_fit_iterations"):
            assert instrument_state(parallel)[name] == instrument_state(serial)[name]
        for name in ("tmark_max_mass_drift", "tmark_last_cell_mean"):
            assert parallel.get(name).value == serial.get(name).value, name
        # Every other event-count counter matches.
        assert counters(parallel, exclude=POOL_COUNTERS) == counters(
            serial, exclude=POOL_COUNTERS
        )
        # Timing histograms can't match on sums, but the observation
        # counts must: one per trial / fit / cell, no loss, no double
        # counting.
        for name in ("tmark_trial_seconds", "tmark_grid_cell_seconds"):
            assert parallel.get(name).count == serial.get(name).count, name

    def test_live_registry_equals_the_refold_of_its_events(self, hin):
        registry, sink = MetricsRegistry(), ListRecorder()
        run_grid(
            hin, methods(), FRACTIONS, n_trials=2, seed=11, workers=2,
            recorder=MetricsRecorder(registry, forward=sink),
        )
        # The pool's own span and events reach the registry too: events
        # are the only channel, so the trace recomputes every number.
        assert sink.events_of("pool_start")
        assert instrument_state(registry) == instrument_state(
            registry_from_events(sink.events)
        )

    def test_operator_sharing_off_still_identical(self, hin):
        # Each worker shares one operator build across its cells; the
        # pooled grid still equals fitting every trial on its own.
        parallel = run_grid(hin, methods(), FRACTIONS, n_trials=1, seed=3, workers=2)
        assert grid_cells(parallel) == per_trial_fit_cells(
            hin, methods(), FRACTIONS, n_trials=1, seed=3
        )


class TestOneGridLoop:
    def test_cell_events_match_the_in_process_grid(self, hin):
        # Where a cell runs changes only timings, ids and the pool tags.
        ignored = {"ts", "seconds", "span_id", "worker", "cell"}

        def cell_events(workers):
            recorder = ListRecorder(probes=False)
            run_grid(
                hin, methods(), FRACTIONS, n_trials=2, seed=11,
                recorder=recorder, workers=workers,
            )
            return [
                {k: v for k, v in event.items() if k not in ignored}
                for event in recorder.events
                if event["event"] in ("trial", "fit", "chain_health", "grid_cell")
            ]

        in_process = cell_events(1)
        assert {e["event"] for e in in_process} == {
            "trial", "fit", "chain_health", "grid_cell"
        }
        assert cell_events(2) == in_process

    def test_empty_grid_needs_no_pool(self, hin):
        grid = run_grid(hin, methods(), (), n_trials=1, seed=0, workers=2)
        assert grid.cells == {"TMark": [], "TMark-low": []}

    def test_pool_workers_run_single_threaded_blas(self, hin):
        if not openblas_threads():
            pytest.skip("no OpenBLAS loaded in this process")
        # A worker whose BLAS runs more than one thread fails its cell.
        run_grid(
            hin, [("probe", _BlasThreadProbe)], FRACTIONS, n_trials=1,
            seed=0, workers=2,
        )


class _BlasThreadProbe:
    def fit_predict(self, hin, rng=None):
        threads = openblas_threads()
        if not threads or set(threads.values()) != {1}:
            raise RuntimeError(f"pool worker OpenBLAS threads: {threads}")
        return np.full((hin.n_nodes, hin.n_labels), 1.0 / hin.n_labels)


class _Boom:
    def fit_predict(self, hin, rng=None):
        raise RuntimeError("synthetic worker failure for the pool test")


class TestWorkerFailure:
    def test_raises_worker_error_with_original_traceback(self, hin):
        bad = [("Boom", _Boom)] + methods()
        with pytest.raises(WorkerError, match="Boom@0.3"):
            run_grid(hin, bad, (0.3,), n_trials=1, seed=0, workers=2)

    def test_original_exception_chained(self, hin):
        with pytest.raises(WorkerError) as excinfo:
            run_grid(hin, [("Boom", _Boom)], (0.3,), n_trials=1, seed=0,
                     workers=2)
        cause = excinfo.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert "synthetic worker failure" in str(cause)
        # The pool chains the worker's formatted traceback as the
        # cause's cause — the fit_predict frame must be visible.
        assert "fit_predict" in str(getattr(cause, "__cause__", ""))


class TestPoolTelemetry:
    def test_events_tagged_with_worker_and_cell(self, hin):
        recorder = ListRecorder(probes=False)
        grid = run_grid(
            hin, methods(), FRACTIONS, n_trials=1, seed=2,
            recorder=recorder, workers=2,
        )
        n_cells = len(grid_cells(grid))
        (pool_start,) = recorder.events_of("pool_start")
        assert pool_start["workers"] == 2
        assert pool_start["n_cells"] == n_cells
        assert pool_start["start_method"] == "fork"
        assert len(recorder.events_of("cell_dispatch")) == n_cells
        done = recorder.events_of("cell_done")
        assert len(done) == n_cells
        assert {e["cell"] for e in done} == {
            f"{m}@{f:g}" for m, f in grid_cells(grid)
        }
        # Every worker-origin event carries the worker PID + cell tag.
        for event in recorder.events_of("trial") + recorder.events_of("fit"):
            assert event["worker"] > 0
            assert "@" in event["cell"]
        # Replayed worker events count in the parent as in process.
        registry = registry_from_events(recorder.events)
        assert registry.get("tmark_trials_total").value == n_cells
        assert registry.get("tmark_grid_cells_total").value == n_cells

    def test_trace_summary_reports_pool(self, hin):
        recorder = ListRecorder(probes=False)
        run_grid(
            hin, methods(), (0.3,), n_trials=1, seed=2,
            recorder=recorder, workers=2,
        )
        summary = summarize_trace(recorder.events)
        assert summary.pool_workers == 2
        assert summary.n_dispatched == 2
        assert summary.n_pool_done == 2
        assert summary.pool_cell_seconds > 0.0


class TestValidation:
    def test_workers_must_be_positive(self, hin):
        with pytest.raises(ValidationError, match="workers"):
            run_grid(hin, methods(), FRACTIONS, n_trials=1, workers=0)

    def test_duplicate_method_names_rejected(self, hin):
        factory = methods()[0][1]
        with pytest.raises(ValidationError, match="distinct"):
            run_grid(
                hin, [("M", factory), ("M", factory)], FRACTIONS,
                n_trials=1, workers=2,
            )

    def test_bad_metric_rejected(self, hin):
        with pytest.raises(ValidationError, match="metric"):
            run_grid(
                hin, methods(), FRACTIONS, n_trials=1, metric="nope",
                workers=2,
            )


class TestSpanPropagation:
    def test_worker_spans_link_to_the_pool_span_across_forks(self, hin):
        recorder = ListRecorder(probes=False)
        grid = run_grid(
            hin, methods(), FRACTIONS, n_trials=1, seed=2,
            recorder=recorder, workers=2,
        )
        n_cells = len(grid_cells(grid))
        spans = recorder.events_of("span")
        (pool,) = [e for e in spans if e["name"] == "pool"]
        cells = [e for e in spans if e["name"] == "cell"]
        assert len(cells) == n_cells
        # Every worker cell span re-rooted under the coordinator's pool
        # span: parent/trace link across the fork boundary.
        for cell in cells:
            assert cell["parent_id"] == pool["span_id"]
            assert cell["trace_id"] == pool["trace_id"]
        # Ids are kernel-entropy, so fork workers cannot collide — all
        # span ids are unique even across processes.
        ids = [e["span_id"] for e in spans]
        assert len(set(ids)) == len(ids)
        # Worker spans carry the worker's own pid, distinct from the
        # coordinator's.
        worker_pids = {cell["pid"] for cell in cells}
        assert pool["pid"] not in worker_pids
        # Worker-side flat events are tagged with their enclosing cell
        # span, so causality survives the replay into the parent trace.
        cell_ids = {cell["span_id"] for cell in cells}
        for event in recorder.events_of("fit"):
            assert event["span_id"] in cell_ids


class TestSpecsAndFingerprint:
    def test_cell_spec_tag(self):
        spec = CellSpec(
            index=0, method="TMark", fraction=0.3, n_trials=2,
            metric="accuracy", base_entropy=1,
        )
        assert spec.cell == "TMark@0.3"

    def test_fingerprint_is_content_addressed(self, hin):
        assert graph_fingerprint(hin) == graph_fingerprint(hin)
        other = small_labeled_hin(seed=8, n=40, q=3)
        assert graph_fingerprint(hin) != graph_fingerprint(other)

    def test_available_workers_positive(self):
        assert available_workers() >= 1


class TestCli:
    def test_run_example_accepts_workers(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "example", "--workers", "2"]) == 0
        captured = capsys.readouterr()
        assert "Worked example" in captured.out
        assert captured.err.splitlines() == [
            "[--workers ignored: 'example' does not take it]"
        ]
