"""Process-pool execution for the evaluation harness.

The grid of :func:`~repro.experiments.harness.run_grid` is embarrassingly
parallel by construction: every cell's RNG stream is derived from
``(seed, method_name, fraction)`` alone (never from grid position), so
cells can run in any order — or in different processes — and produce
byte-identical results.  This module exploits that structure with a
process pool:

* The parent pickles only tiny :class:`CellSpec` / :class:`TrialSpec`
  records into the pool's task queue.  The heavyweight shared context —
  the ground-truth :class:`~repro.hin.graph.HIN` and the (frequently
  unpicklable lambda) method factories — reaches the workers through the
  ``fork`` start method's copy-on-write inheritance, installed by a
  per-process initializer.
* Each worker process builds the cached ``(O, R, W)`` operator triple at
  most once per similarity setting, memoised in a per-process pool keyed
  on the parent graph's :func:`graph_fingerprint` — the parallel
  analogue of :func:`~repro.experiments.harness.shared_tmark_operators`.
* Workers run with their own
  :class:`~repro.obs.recorder.ListRecorder` /
  :class:`~repro.obs.metrics.MetricsRegistry` and ship the recorded
  events and instruments back with the scores.  The parent re-emits the
  events into its own recorder tagged with ``worker`` (the worker PID)
  and ``cell`` so ``trace-summary``, ``health`` and ``trace-diff`` keep
  working on parallel traces, and folds the registries together with
  the exact :meth:`~repro.obs.metrics.MetricsRegistry.merge`.
* A worker that raises fails the whole grid immediately — the original
  exception (with its remote traceback chained underneath) propagates
  as the cause of a :class:`WorkerError` naming the failed cell.

``workers=1`` never touches this module: the serial paths in
``harness`` stay byte-for-byte what they were.  On platforms without
the ``fork`` start method (or when called from inside a worker) the
parallel entry points fall back to the serial implementation with a
:class:`RuntimeWarning` instead of failing.
"""

from __future__ import annotations

import hashlib
import os
import time
import warnings
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import ReproError, ValidationError
from repro.hin.graph import HIN
from repro.obs.metrics import MetricsRecorder, MetricsRegistry
from repro.obs.recorder import NULL_RECORDER, ListRecorder, get_recorder
from repro.obs.spans import SpanContext, activate_span, span
from repro.utils.validation import check_positive_int


class WorkerError(ReproError, RuntimeError):
    """A pool worker raised; the original exception is chained as cause."""


def available_workers() -> int:
    """CPUs usable by this process (affinity-aware, always >= 1)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def fork_available() -> bool:
    """Whether the ``fork`` start method (the pool's transport) exists."""
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


def in_worker() -> bool:
    """Whether this process is a pool worker (nested pools are refused)."""
    return _STATE is not None


def graph_fingerprint(hin: HIN) -> str:
    """A stable content hash of a HIN's structure, features and labels.

    Keys the per-process operator caches: two grids over the same graph
    share one ``(O, R, W)`` build per worker, while grids over different
    graphs (even of identical shape) never mix operators.  Hashes the
    exact bytes of the adjacency coordinates/values, the features and
    the label matrix, so any difference that could change the operators
    changes the fingerprint.
    """
    digest = hashlib.sha256()
    i, j, k = hin.tensor.coords
    for array in (i, j, k, hin.tensor.values):
        digest.update(np.ascontiguousarray(array).tobytes())
    features = hin.features
    if sp.issparse(features):
        features = features.tocsr()
        digest.update(features.indptr.tobytes())
        digest.update(features.indices.tobytes())
        digest.update(features.data.tobytes())
    else:
        digest.update(np.ascontiguousarray(features).tobytes())
    digest.update(np.ascontiguousarray(hin.label_matrix).tobytes())
    digest.update("\x1f".join(hin.relation_names).encode("utf-8"))
    digest.update(repr((hin.tensor.shape, hin.n_features)).encode("ascii"))
    return digest.hexdigest()


@dataclass(frozen=True)
class CellSpec:
    """One picklable grid-cell work order (method x fraction)."""

    index: int
    method: str
    fraction: float
    n_trials: int
    metric: str
    base_entropy: int

    @property
    def cell(self) -> str:
        """The ``cell`` tag carried on this cell's pool events."""
        return f"{self.method}@{self.fraction:g}"


@dataclass(frozen=True)
class TrialSpec:
    """One picklable single-trial work order of ``evaluate_method``."""

    index: int
    method: str
    fraction: float
    metric: str
    split_rng: np.random.Generator
    method_rng: np.random.Generator

    @property
    def cell(self) -> str:
        """The ``cell`` tag carried on this trial's pool events."""
        return f"{self.method}@{self.fraction:g}#t{self.index}"


@dataclass
class _WorkerState:
    """The fork-inherited context shared by every worker of one pool."""

    hin: HIN
    factories: dict[str, Callable[[], object]]
    fingerprint: str
    share_operators: bool
    collect_events: bool
    collect_metrics: bool
    probes: bool
    #: ``(trace_id, span_id)`` of the parent's pool span, shipped across
    #: the fork so worker spans link back into the coordinator's trace
    #: (``None`` when the parent is not tracing).
    span_context: tuple[str, str] | None = None


@dataclass
class _Outcome:
    """Everything one worker ships back for one cell/trial."""

    index: int
    payload: object
    seconds: float
    worker: int
    events: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    registry_json: str | None = None


#: Per-process worker context, installed by :func:`_initialize_worker`.
_STATE: _WorkerState | None = None

#: Per-process operator pools: graph fingerprint -> operator pool dict
#: (the same ``(similarity_top_k, similarity_metric)``-keyed mapping
#: that :func:`~repro.experiments.harness.shared_tmark_operators` uses).
_OPERATOR_POOLS: dict[str, dict] = {}


def _initialize_worker(state: _WorkerState) -> None:
    """Pool initializer: install the fork-inherited shared context."""
    global _STATE
    _STATE = state


def _worker_recorder(state: _WorkerState):
    """Build the per-cell recorder stack a worker runs under.

    Returns ``(recorder, events_sink, registry)`` where ``events_sink``
    / ``registry`` are ``None`` when the parent asked for no events /
    no metrics.
    """
    events_sink = (
        ListRecorder(probes=state.probes) if state.collect_events else None
    )
    registry = MetricsRegistry() if state.collect_metrics else None
    if registry is not None:
        recorder = MetricsRecorder(registry, forward=events_sink)
        recorder.probes = state.probes
    elif events_sink is not None:
        recorder = events_sink
    else:
        recorder = NULL_RECORDER
    return recorder, events_sink, registry


def _parent_span(state: _WorkerState) -> SpanContext | None:
    """Rebuild the parent pool span's context from the shipped ids."""
    if state.span_context is None:
        return None
    trace_id, span_id = state.span_context
    return SpanContext(span_id=span_id, trace_id=trace_id)


def _operator_pool(state: _WorkerState) -> dict | None:
    """This process's operator pool for the context graph (or ``None``)."""
    if not state.share_operators:
        return None
    return _OPERATOR_POOLS.setdefault(state.fingerprint, {})


def _run_cell(spec: CellSpec) -> _Outcome:
    """Worker body: one full grid cell under a private recorder stack."""
    from repro.experiments.harness import cell_seed_sequence, evaluate_method

    state = _STATE
    if state is None:  # pragma: no cover - initializer contract violation
        raise RuntimeError("worker context not initialized")
    recorder, events_sink, registry = _worker_recorder(state)
    cell_rng = np.random.default_rng(
        cell_seed_sequence(spec.base_entropy, spec.method, spec.fraction)
    )
    started = time.perf_counter()
    with activate_span(_parent_span(state)):
        with span(
            "cell", recorder=recorder,
            method=spec.method, fraction=spec.fraction,
        ):
            result = evaluate_method(
                state.hin,
                state.factories[spec.method],
                spec.fraction,
                n_trials=spec.n_trials,
                seed=cell_rng,
                metric=spec.metric,
                operator_pool=_operator_pool(state),
                recorder=recorder,
                method_name=spec.method,
            )
    return _Outcome(
        index=spec.index,
        payload=result,
        seconds=time.perf_counter() - started,
        worker=os.getpid(),
        events=events_sink.events if events_sink is not None else [],
        counters=dict(recorder.counters),
        registry_json=registry.to_json() if registry is not None else None,
    )


def _run_trial(spec: TrialSpec) -> _Outcome:
    """Worker body: one harness trial under a private recorder stack."""
    from repro.experiments.harness import run_single_trial

    state = _STATE
    if state is None:  # pragma: no cover - initializer contract violation
        raise RuntimeError("worker context not initialized")
    recorder, events_sink, registry = _worker_recorder(state)
    started = time.perf_counter()
    with activate_span(_parent_span(state)):
        with span(
            "trial", recorder=recorder,
            method=spec.method, fraction=spec.fraction, trial=spec.index,
        ):
            value = run_single_trial(
                state.hin,
                state.factories[spec.method],
                spec.fraction,
                trial=spec.index,
                split_rng=spec.split_rng,
                method_rng=spec.method_rng,
                metric=spec.metric,
                operator_pool=_operator_pool(state),
                recorder=recorder,
                method_name=spec.method,
            )
    return _Outcome(
        index=spec.index,
        payload=value,
        seconds=time.perf_counter() - started,
        worker=os.getpid(),
        events=events_sink.events if events_sink is not None else [],
        counters=dict(recorder.counters),
        registry_json=registry.to_json() if registry is not None else None,
    )


def serial_fallback_reason() -> str | None:
    """Why a fork pool cannot be used here (``None`` when it can).

    The one fallback contract of every pool entry point — the parallel
    grid, parallel trials and sharded fits (:mod:`repro.shard`): no
    nested pools (a pool requested from inside a grid/trial worker runs
    serially), and no pools without the ``fork`` start method.
    """
    if in_worker():
        return "already inside a worker process (no nested pools)"
    if not fork_available():
        return "the 'fork' start method is unavailable on this platform"
    return None


def _emit(recorder, fold, event: str, **fields) -> None:
    """Emit a parent-originated pool event to the recorder and registry.

    ``fold`` is the parent-side :class:`MetricsRecorder` wrapping the
    caller's registry (or ``None``).  Worker-originated events never go
    through it — they were already folded inside the worker — so every
    event lands in the registry exactly once.
    """
    if recorder.enabled:
        recorder.emit(event, **fields)
    if fold is not None:
        fold.emit(event, **fields)


def _replay_outcome(outcome: _Outcome, cell: str, recorder, metrics) -> None:
    """Fold one worker's telemetry back into the parent's sinks.

    Events are re-emitted through the parent recorder tagged with
    ``worker``/``cell``; counters are re-counted; the worker registry is
    folded in with the exact merge.  Called in deterministic spec order
    so gauge last-wins merges are reproducible.
    """
    if recorder.enabled:
        for event in outcome.events:
            fields = {k: v for k, v in event.items() if k != "event"}
            recorder.emit(event["event"], worker=outcome.worker, cell=cell, **fields)
        for name, count in outcome.counters.items():
            recorder.count(name, count)
    if metrics is not None and outcome.registry_json is not None:
        metrics.merge(MetricsRegistry.from_json(outcome.registry_json))


def _run_pool(specs, worker_fn, state: _WorkerState, workers: int):
    """Run ``worker_fn`` over ``specs``; return outcomes in spec order.

    Raises :class:`WorkerError` (original exception chained) as soon as
    any worker fails; remaining queued work is cancelled so the grid
    fails fast instead of hanging.
    """
    import multiprocessing

    outcomes: list[_Outcome | None] = [None] * len(specs)
    executor = ProcessPoolExecutor(
        max_workers=min(workers, len(specs)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_initialize_worker,
        initargs=(state,),
    )
    try:
        futures = {executor.submit(worker_fn, spec): spec for spec in specs}
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        for future in done:
            error = future.exception()
            if error is not None:
                for pending in not_done:
                    pending.cancel()
                spec = futures[future]
                raise WorkerError(
                    f"parallel {worker_fn.__name__.lstrip('_')} for cell "
                    f"{spec.cell!r} failed in a worker process: "
                    f"{type(error).__name__}: {error}"
                ) from error
        for future, spec in futures.items():
            outcomes[spec.index] = future.result()
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
    return outcomes


def run_grid_parallel(
    hin: HIN,
    methods: Sequence[tuple[str, Callable[[], object]]],
    fractions=None,
    *,
    n_trials: int = 3,
    seed=None,
    metric: str = "accuracy",
    share_operators: bool = True,
    recorder=None,
    metrics=None,
    workers: int = 2,
):
    """The process-pool twin of :func:`~repro.experiments.harness.run_grid`.

    Same signature plus ``workers``; dispatches one :class:`CellSpec`
    per (method, fraction) cell to a fork-based pool and merges results,
    events and metrics back in deterministic grid order.  Cell scores
    are bit-identical to the serial path because each cell's RNG stream
    is derived from ``(seed, method_name, fraction)`` alone and operator
    sharing never changes scores.  Falls back to the serial
    implementation (with a :class:`RuntimeWarning`) where no pool can
    be built.
    """
    from repro.experiments import harness

    workers = check_positive_int(workers, "workers")
    fractions = harness.PAPER_FRACTIONS if fractions is None else fractions
    reason = serial_fallback_reason()
    if reason is not None:
        warnings.warn(
            f"run_grid(workers={workers}) falling back to serial: {reason}",
            RuntimeWarning,
            stacklevel=2,
        )
        return harness.run_grid(
            hin, methods, fractions, n_trials=n_trials, seed=seed,
            metric=metric, share_operators=share_operators,
            recorder=recorder, metrics=metrics,
        )
    methods = list(methods)
    names = [name for name, _ in methods]
    if len(set(names)) != len(names):
        raise ValidationError(
            f"method names must be distinct for parallel grids, got {names}"
        )
    if metric not in harness.METRICS:
        raise ValidationError(
            f"metric must be one of {harness.METRICS}, got {metric!r}"
        )
    check_positive_int(n_trials, "n_trials")
    rec = get_recorder() if recorder is None else recorder
    fold = MetricsRecorder(metrics) if metrics is not None else None
    base_entropy = harness._grid_base_entropy(seed)
    grid = harness.GridResult(
        fractions=tuple(float(f) for f in fractions), metric=metric
    )
    specs = [
        CellSpec(
            index=index,
            method=name,
            fraction=float(fraction),
            n_trials=n_trials,
            metric=metric,
            base_entropy=base_entropy,
        )
        for index, (name, fraction) in enumerate(
            (name, fraction) for name in names for fraction in grid.fractions
        )
    ]
    with span(
        "pool", recorder=rec, level="grid", n_cells=len(specs),
        workers=min(workers, len(specs)),
    ) as pool_ctx:
        state = _WorkerState(
            hin=hin,
            factories=dict(methods),
            fingerprint=graph_fingerprint(hin),
            share_operators=share_operators,
            collect_events=rec.enabled,
            collect_metrics=metrics is not None,
            # Mirror the serial path: a metrics-only run (no enabled event
            # recorder) keeps MetricsRecorder's probes-on default; otherwise
            # probes follow the event recorder's preference.
            probes=(
                bool(getattr(rec, "probes", False))
                if rec.enabled
                else metrics is not None
            ),
            span_context=(
                (pool_ctx.trace_id, pool_ctx.span_id)
                if pool_ctx is not None
                else None
            ),
        )
        _emit(
            rec, fold, "pool_start",
            workers=min(workers, len(specs)), n_cells=len(specs),
            level="grid", start_method="fork",
        )
        for spec in specs:
            _emit(rec, fold, "cell_dispatch", cell=spec.cell, index=spec.index)
        outcomes = _run_pool(specs, _run_cell, state, workers)
        for name in names:
            grid.cells[name] = []
        for spec, outcome in zip(specs, outcomes):
            _replay_outcome(outcome, spec.cell, rec, metrics)
            cell_result = outcome.payload
            grid.cells[spec.method].append(cell_result)
            _emit(
                rec, fold, "grid_cell",
                method=spec.method, fraction=spec.fraction, metric=metric,
                mean=cell_result.mean, std=cell_result.std,
                n_trials=cell_result.n_trials, seconds=outcome.seconds,
            )
            if rec.enabled:
                rec.count("grid_cells")
            if fold is not None:
                fold.count("grid_cells")
            _emit(
                rec, fold, "cell_done",
                cell=spec.cell, index=spec.index, worker=outcome.worker,
                mean=cell_result.mean, seconds=outcome.seconds,
            )
    return grid


def run_trials_parallel(
    hin: HIN,
    method_factory: Callable[[], object],
    fraction: float,
    *,
    rngs,
    metric: str = "accuracy",
    share_operators: bool = True,
    recorder=None,
    method_name: str | None = None,
    workers: int = 2,
) -> list[float] | None:
    """Run ``evaluate_method``'s trial loop on a process pool.

    ``rngs`` is the flat ``spawn_rngs(seed, 2 * n_trials)`` list the
    serial loop would consume — trial ``t`` uses ``rngs[2t]`` for the
    split and ``rngs[2t + 1]`` for the method, exactly as in the serial
    path, so per-trial values are bit-identical.  Returns the metric
    values in trial order, or ``None`` when no pool can be built here
    (the caller then runs its serial loop).
    """
    workers = check_positive_int(workers, "workers")
    reason = serial_fallback_reason()
    if reason is not None:
        warnings.warn(
            f"evaluate_method(workers={workers}) falling back to serial: "
            f"{reason}",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    rec = get_recorder() if recorder is None else recorder
    name = method_name if method_name is not None else "method"
    n_trials = len(rngs) // 2
    specs = [
        TrialSpec(
            index=trial,
            method=name,
            fraction=float(fraction),
            metric=metric,
            split_rng=rngs[2 * trial],
            method_rng=rngs[2 * trial + 1],
        )
        for trial in range(n_trials)
    ]
    with span(
        "pool", recorder=rec, level="trials", n_cells=len(specs),
        workers=min(workers, len(specs)),
    ) as pool_ctx:
        state = _WorkerState(
            hin=hin,
            factories={name: method_factory},
            fingerprint=graph_fingerprint(hin),
            share_operators=share_operators,
            collect_events=rec.enabled,
            collect_metrics=False,
            probes=bool(getattr(rec, "probes", False)) and rec.enabled,
            span_context=(
                (pool_ctx.trace_id, pool_ctx.span_id)
                if pool_ctx is not None
                else None
            ),
        )
        _emit(
            rec, None, "pool_start",
            workers=min(workers, len(specs)), n_cells=len(specs),
            level="trials", start_method="fork",
        )
        for spec in specs:
            _emit(rec, None, "cell_dispatch", cell=spec.cell, index=spec.index)
        outcomes = _run_pool(specs, _run_trial, state, workers)
        values = []
        for spec, outcome in zip(specs, outcomes):
            _replay_outcome(outcome, spec.cell, rec, None)
            values.append(float(outcome.payload))
            _emit(
                rec, None, "cell_done",
                cell=spec.cell, index=spec.index, worker=outcome.worker,
                value=float(outcome.payload), seconds=outcome.seconds,
            )
    return values
