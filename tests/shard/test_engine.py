"""Tests for the sharded chain runner (repro.shard.engine).

The contract under test: ``shards=K`` buys wall-clock only — the
stationary scores are bit-identical to the serial fit
for *any* shard count (including warm starts and every gamma branch),
accelerated solvers stay argmax-identical, worker failures surface the
remote traceback as :class:`WorkerError` instead of hanging the fit, and
platforms without ``fork`` fall back to the serial path with a warning
and unchanged results.
"""

import os
import time

import numpy as np
import pytest

from repro.core import TMark
from repro.core.features import LowRankMatrix
from repro.datasets import make_worked_example
from repro.datasets.synthetic import RelationSpec, make_synthetic_hin
from repro.forkpool import WorkerError, fork_available, serial_fallback_reason
from repro.hin.builder import HINBuilder
from repro.obs import ListRecorder, registry_from_events
from repro.shard import run_chains_sharded
from tests.conftest import small_labeled_hin

pytestmark = [
    pytest.mark.skipif(
        not fork_available(), reason="sharded fit requires the fork start method"
    ),
    pytest.mark.usefixtures("no_child_processes"),
]


@pytest.fixture(scope="module")
def hin():
    return small_labeled_hin(seed=7, n=30, q=3)


def fitted(hin, *, gamma=0.4, top_k=None, solver="plain", **fit_kwargs):
    model = TMark(
        alpha=0.8, gamma=gamma, similarity_top_k=top_k, max_iter=80, solver=solver
    )
    model.fit(hin, **fit_kwargs)
    return model


def assert_same_scores(serial, sharded):
    assert np.array_equal(
        serial.result_.node_scores, sharded.result_.node_scores
    )
    assert np.array_equal(
        serial.result_.relation_scores, sharded.result_.relation_scores
    )
    assert [h.n_iterations for h in serial.result_.histories] == [
        h.n_iterations for h in sharded.result_.histories
    ]


class TestBitIdentity:
    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize(
        "gamma,top_k",
        [(0.0, None), (0.4, None), (0.4, 5)],
        ids=["no-walk", "dense-walk", "sparse-walk"],
    )
    def test_scores_identical(self, hin, shards, gamma, top_k):
        serial = fitted(hin, gamma=gamma, top_k=top_k)
        sharded = fitted(
            hin, gamma=gamma, top_k=top_k, shards=shards, workers=2
        )
        assert_same_scores(serial, sharded)

    @pytest.mark.parametrize("shards", [2, 3])
    def test_many_relations_identical(self, shards):
        # The benchmark's dense_fit shape, scaled down: 20 link types, so
        # most (k, i) rows of O's stack are empty in every shard.
        hin = make_synthetic_hin(
            120,
            ["a", "b", "c", "d"],
            [RelationSpec(f"r{k}", n_links=12, homophily=0.5) for k in range(20)],
            seed=23,
        ).masked(np.arange(120) % 5 == 0)
        serial = fitted(hin, gamma=0.5)
        sharded = fitted(hin, gamma=0.5, shards=shards, workers=2)
        assert_same_scores(serial, sharded)

    def test_single_shard_runs_serial(self, hin):
        # shards=1 short-circuits to the serial runner.
        assert_same_scores(fitted(hin), fitted(hin, shards=1))

    def test_warm_starts_identical(self, hin):
        cold = fitted(hin)
        starts = (cold.result_.node_scores, cold.result_.relation_scores)
        serial = fitted(hin, starts=starts)
        sharded = fitted(hin, starts=starts, shards=3, workers=2)
        assert_same_scores(serial, sharded)

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_worked_example(self, shards):
        hin = make_worked_example()
        serial = TMark(alpha=0.8, gamma=0.5).fit(hin)
        sharded = TMark(alpha=0.8, gamma=0.5).fit(hin, shards=shards)
        assert_same_scores(serial, sharded)
        assert np.array_equal(serial.predict(), sharded.predict())

    def test_direct_engine_single_shard(self, hin):
        # The engine itself (not the fit() shortcut) at K=1 is also exact.
        model = TMark(alpha=0.8, gamma=0.4, max_iter=80)
        operators = model_operators(hin, model)
        scores, relations, histories = run_chains_sharded(
            model, *operators, hin.label_matrix, shards=1, workers=1
        )
        serial = fitted(hin)
        assert np.array_equal(scores, serial.result_.node_scores)
        assert np.array_equal(relations, serial.result_.relation_scores)
        assert len(histories) == hin.n_labels


@pytest.fixture(scope="module")
def factored_hin():
    """Non-negative features with n >> d: the fit walks a factored W.

    Links form two rings (steps 1 and 2), so a shard's O/R halo is a
    few boundary rows rather than the whole complement.
    """
    rng = np.random.default_rng(7)
    n, q = 48, 3
    builder = HINBuilder([f"c{c}" for c in range(q)])
    for idx in range(n):
        labels = [f"c{idx % q}"] if idx % 4 == 0 else []
        features = rng.poisson(1.0, size=5).astype(float)
        features[idx % q] += 2.0
        builder.add_node(f"v{idx}", features=features, labels=labels)
    for idx in range(n):
        builder.add_link(f"v{idx}", f"v{(idx + 1) % n}", "r0")
        builder.add_link(f"v{idx}", f"v{(idx + 2) % n}", "r1")
    return builder.build()


class TestFactoredWalk:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_scores_identical(self, factored_hin, shards):
        model = TMark(alpha=0.8, gamma=0.4, max_iter=80)
        assert isinstance(model_operators(factored_hin, model)[2], LowRankMatrix)
        serial = fitted(factored_hin)
        sharded = fitted(factored_hin, shards=shards, workers=2)
        assert_same_scores(serial, sharded)

    def test_coordinator_walk_adds_no_halo(self, factored_hin):
        # Workers never read a factored (or dense) W, so the exchange
        # reports only the O/R halo, as for a fit without a feature walk.
        walks, no_walk = ListRecorder(), ListRecorder()
        fitted(factored_hin, shards=2, workers=2, recorder=walks)
        fitted(factored_hin, gamma=0.0, shards=2, workers=2, recorder=no_walk)
        halo = {e["halo_rows"] for e in walks.events_of("boundary_exchange")}
        expected = {e["halo_rows"] for e in no_walk.events_of("boundary_exchange")}
        assert halo == expected
        # The full complement of two shards would total n rows.
        assert max(halo) < factored_hin.n_nodes // 2


class TestSolvers:
    def test_anderson_argmax_identical(self, hin):
        serial = fitted(hin, solver="anderson")
        for shards in (2, 4):
            sharded = fitted(hin, solver="anderson", shards=shards, workers=2)
            assert np.array_equal(serial.predict(), sharded.predict())
            assert np.allclose(
                serial.result_.node_scores,
                sharded.result_.node_scores,
                atol=1e-8,
            )


class TestTelemetry:
    def test_shard_events(self, hin):
        recorder = ListRecorder()
        fitted(hin, shards=3, workers=2, recorder=recorder)
        dispatches = recorder.events_of("shard_dispatch")
        assert len(dispatches) >= 2
        assert {d["index"] for d in dispatches} == set(range(len(dispatches)))
        for dispatch in dispatches:
            assert 0 <= dispatch["start"] < dispatch["stop"] <= hin.n_nodes
            assert dispatch["worker"] < 2
        exchanges = recorder.events_of("boundary_exchange")
        iterations = max(
            e["t"] for e in recorder.events_of("chain_iteration")
        )
        assert len(exchanges) == iterations
        for exchange in exchanges:
            assert exchange["bytes_exchanged"] > 0
            assert exchange["seconds"] >= 0.0
        spans = [
            e for e in recorder.events_of("span") if e["name"] == "shard_pool"
        ]
        assert len(spans) == 1
        registry = registry_from_events(recorder.events)
        assert registry.get("tmark_shard_dispatches_total").value == len(dispatches)
        assert registry.get("tmark_boundary_exchanges_total").value == len(exchanges)

    @pytest.mark.parametrize("solver", ["plain", "anderson"])
    def test_serial_chain_events_preserved(self, hin, solver):
        serial_rec, sharded_rec = ListRecorder(), ListRecorder()
        serial = fitted(hin, solver=solver, recorder=serial_rec)
        sharded = fitted(
            hin, solver=solver, shards=2, workers=2, recorder=sharded_rec
        )
        for event in ("chain_iteration", "chain_health"):
            assert len(sharded_rec.events_of(event)) == len(
                serial_rec.events_of(event)
            )
        # Per-class residual streams match exactly: same convergence
        # trajectory.
        for key in ("class_index", "residual", "frozen"):
            serial_stream = [e[key] for e in serial_rec.events_of("chain_iteration")]
            sharded_stream = [e[key] for e in sharded_rec.events_of("chain_iteration")]
            assert serial_stream == sharded_stream
        # Probes and solver events agree field by field (timings aside).
        for event in ("invariant_probe", "solver_step", "solver_restart"):
            serial_events = [
                untimed(e) for e in serial_rec.events_of(event)
            ]
            sharded_events = [
                untimed(e) for e in sharded_rec.events_of(event)
            ]
            assert serial_events == sharded_events, event
        assert serial_rec.events_of("invariant_probe")
        if solver != "plain":
            assert serial_rec.events_of("solver_step")
        assert np.array_equal(
            serial.result_.node_scores, sharded.result_.node_scores
        )


def untimed(event):
    """An event's fields minus wall-clock timings and span ids."""
    return {
        key: value
        for key, value in event.items()
        if key not in ("seconds", "span_id")
    }


class TestFallback:
    def test_no_fork_warns_and_matches_serial(self, hin, monkeypatch):
        import repro.forkpool as forkpool

        monkeypatch.setattr(forkpool, "fork_available", lambda: False)
        assert serial_fallback_reason() is not None
        serial = fitted(hin)
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            fallback = fitted(hin, shards=2, workers=2)
        assert_same_scores(serial, fallback)

    def test_nested_worker_warns_and_matches_serial(self, hin, monkeypatch):
        import repro.forkpool as forkpool

        monkeypatch.setattr(forkpool, "in_worker", lambda: True)
        serial = fitted(hin)
        with pytest.warns(RuntimeWarning, match="inside a worker"):
            fallback = fitted(hin, shards=2, workers=2)
        assert_same_scores(serial, fallback)

    def test_no_fallback_reason_on_capable_platform(self):
        assert serial_fallback_reason() is None


class _ExplodingTensor:
    """Delegates to a real tensor, but raises in any forked child."""

    def __init__(self, inner):
        self._inner = inner
        self._parent_pid = os.getpid()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def row_walk(self, start, stop):
        if os.getpid() != self._parent_pid:
            raise RuntimeError("operator exploded in the worker")
        return self._inner.row_walk(start, stop)


class _StallingTensor:
    """Delegates to a real tensor, but its row walk hangs in any forked child."""

    def __init__(self, inner):
        self._inner = inner
        self._parent_pid = os.getpid()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def row_walk(self, start, stop):
        if os.getpid() != self._parent_pid:
            time.sleep(120)
        return self._inner.row_walk(start, stop)


class TestFailurePropagation:
    def test_worker_exception_raises_workererror(self, hin):
        model = TMark(alpha=0.8, gamma=0.0, max_iter=80)
        o_tensor, r_tensor, w_matrix = model_operators(hin, model)
        with pytest.raises(WorkerError) as excinfo:
            run_chains_sharded(
                model,
                _ExplodingTensor(o_tensor),
                r_tensor,
                w_matrix,
                hin.label_matrix,
                shards=2,
                workers=2,
            )
        message = str(excinfo.value)
        assert "operator exploded in the worker" in message
        assert "remote traceback" in message
        assert "RuntimeError" in message


    def test_stalled_worker_raises_within_the_deadline(self, hin, monkeypatch):
        import repro.forkpool as forkpool

        monkeypatch.setattr(forkpool, "DEADLINE_SECONDS", 0.5)
        model = TMark(alpha=0.8, gamma=0.0, max_iter=80)
        o_tensor, r_tensor, w_matrix = model_operators(hin, model)
        started = time.monotonic()
        with pytest.raises(WorkerError) as excinfo:
            run_chains_sharded(
                model,
                _StallingTensor(o_tensor),
                r_tensor,
                w_matrix,
                hin.label_matrix,
                shards=2,
                workers=2,
            )
        assert time.monotonic() - started < 10.0
        message = str(excinfo.value)
        assert "shard worker 0, round 1 ('ox')" in message
        assert "stalled" in message

    def test_exited_worker_raises(self, hin):
        model = TMark(alpha=0.8, gamma=0.0, max_iter=80)
        o_tensor, r_tensor, w_matrix = model_operators(hin, model)

        class _ExitingTensor(_StallingTensor):
            def row_walk(self, start, stop):
                if os.getpid() != self._parent_pid:
                    os._exit(3)
                return self._inner.row_walk(start, stop)

        with pytest.raises(WorkerError, match="round 1 .*(exited|died)"):
            run_chains_sharded(
                model, _ExitingTensor(o_tensor), r_tensor, w_matrix,
                hin.label_matrix, shards=2, workers=2,
            )


def model_operators(hin, model):
    """The ``(O, R, W)`` triple exactly as ``TMark.fit`` builds it."""
    from repro.core.features import feature_walk_matrix
    from repro.tensor.transition import build_transition_tensors

    o_tensor, r_tensor = build_transition_tensors(hin.tensor)
    w_matrix = feature_walk_matrix(
        hin.features,
        top_k=model.similarity_top_k,
        metric=model.similarity_metric,
    )
    return o_tensor, r_tensor, w_matrix
