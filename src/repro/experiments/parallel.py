"""The fork pool behind :func:`~repro.experiments.harness.run_grid`.

The grid of :func:`~repro.experiments.harness.run_grid` is embarrassingly
parallel by construction: every cell's RNG stream is derived from
``(seed, method_name, fraction)`` alone (never from grid position), so
cells can run in any order — or in different processes — and produce
byte-identical results.  ``run_grid`` is the one grid loop; with
``workers > 1`` it takes its cells from :func:`cells_on_pool`, and this
module holds only the pool mechanics:

* The parent pickles only tiny :class:`CellSpec` records into the
  pool's task queue.  The heavyweight shared context — the ground-truth
  :class:`~repro.hin.graph.HIN` and the (frequently unpicklable lambda)
  method factories — reaches the workers through the ``fork`` start
  method's copy-on-write inheritance, installed by a per-process
  initializer, which also caps every loaded OpenBLAS at one thread so
  the workers do not oversubscribe the cores.
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

Where no fork pool can be built (:func:`serial_fallback_reason`),
``run_grid`` runs its cells in process instead.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.errors import ReproError
from repro.hin.graph import HIN
from repro.obs.metrics import MetricsRecorder, MetricsRegistry
from repro.obs.recorder import NULL_RECORDER, ListRecorder
from repro.obs.spans import SpanContext, activate_span, span


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
    """Everything one worker ships back for one cell."""

    result: object
    seconds: float
    worker: int
    events: list = field(default_factory=list)
    registry_json: str | None = None


#: Per-process worker context, installed by :func:`_initialize_worker`.
_STATE: _WorkerState | None = None

#: Per-process operator pools: graph fingerprint -> operator pool dict
#: (the same ``(similarity_top_k, similarity_metric)``-keyed mapping
#: that :func:`~repro.experiments.harness.shared_tmark_operators` uses).
_OPERATOR_POOLS: dict[str, dict] = {}


#: Name patterns of the thread-count entry points of the OpenBLAS builds
#: numpy and scipy ship (the ILP64 builds carry a ``64_`` suffix).
_OPENBLAS_SYMBOLS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def _openblas_entry_points(action: str) -> dict[str, Callable]:
    """``{library path: <action>_num_threads}`` of every loaded OpenBLAS.

    ``action`` is ``"get"`` or ``"set"``.  Reads this process's memory
    map, so it finds nothing (and caps nothing) where there is no
    ``/proc`` or no OpenBLAS.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {
                fields[5].strip()
                for fields in (line.split(maxsplit=5) for line in maps)
                if len(fields) == 6
                and "openblas" in os.path.basename(fields[5]).lower()
            }
    except OSError:
        return {}
    entry_points = {}
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _OPENBLAS_SYMBOLS:
            function = getattr(library, pattern.format(action), None)
            if function is not None:
                entry_points[path] = function
                break
    return entry_points


def openblas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS loaded in this process, by path."""
    return {path: int(get()) for path, get in _openblas_entry_points("get").items()}


def _initialize_worker(state: _WorkerState) -> None:
    """Pool initializer: install the fork-inherited shared context.

    Cells are the pool's unit of parallelism, so each worker runs its
    BLAS on one thread: multi-threaded BLAS in every worker at once
    oversubscribes the cores and makes the pool slower than the serial
    grid.  Both builds are capped where loaded (numpy's and scipy's).
    """
    global _STATE
    _STATE = state
    for set_threads in _openblas_entry_points("set").values():
        set_threads(1)


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
    from repro.experiments.harness import evaluate_cell

    state = _STATE
    if state is None:  # pragma: no cover - initializer contract violation
        raise RuntimeError("worker context not initialized")
    recorder, events_sink, registry = _worker_recorder(state)
    started = time.perf_counter()
    with activate_span(_parent_span(state)):
        with span(
            "cell", recorder=recorder,
            method=spec.method, fraction=spec.fraction,
        ):
            result = evaluate_cell(
                state.hin,
                state.factories[spec.method],
                spec,
                operator_pool=_operator_pool(state),
                recorder=recorder,
            )
    return _Outcome(
        result=result,
        seconds=time.perf_counter() - started,
        worker=os.getpid(),
        events=events_sink.events if events_sink is not None else [],
        registry_json=registry.to_json() if registry is not None else None,
    )


def serial_fallback_reason() -> str | None:
    """Why a fork pool cannot be used here (``None`` when it can).

    The one fallback contract of every pool — the grid's and the
    sharded fits' (:mod:`repro.shard`): no nested pools (a pool
    requested from inside a grid worker runs serially), and no pools
    without the ``fork`` start method.
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


def _replay_outcome(outcome: _Outcome, cell: str, recorder, registry) -> None:
    """Fold one worker's telemetry back into the parent's sinks.

    Events are re-emitted through the parent recorder tagged with
    ``worker``/``cell`` (a counting sink there counts them as it would
    have in process); the worker registry is folded in with the exact
    merge.  Called in deterministic spec order
    so gauge last-wins merges are reproducible.
    """
    if recorder.enabled:
        for event in outcome.events:
            fields = {k: v for k, v in event.items() if k != "event"}
            recorder.emit(event["event"], worker=outcome.worker, cell=cell, **fields)
    if registry is not None and outcome.registry_json is not None:
        registry.merge(MetricsRegistry.from_json(outcome.registry_json))


def _run_pool(specs, state: _WorkerState, workers: int) -> list[_Outcome]:
    """Run :func:`_run_cell` over ``specs``; return outcomes in spec order.

    Raises :class:`WorkerError` (original exception chained) as soon as
    any worker fails; remaining queued work is cancelled so the grid
    fails fast instead of hanging.
    """
    import multiprocessing

    executor = ProcessPoolExecutor(
        max_workers=min(workers, len(specs)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_initialize_worker,
        initargs=(state,),
    )
    try:
        futures = {executor.submit(_run_cell, spec): spec for spec in specs}
        done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
        for future in done:
            error = future.exception()
            if error is not None:
                for pending in not_done:
                    pending.cancel()
                spec = futures[future]
                raise WorkerError(
                    f"grid cell {spec.cell!r} failed in a worker process: "
                    f"{type(error).__name__}: {error}"
                ) from error
        return [future.result() for future in futures]
    finally:
        executor.shutdown(wait=True, cancel_futures=True)


def cells_on_pool(
    hin: HIN, factories, specs, *, share_operators, recorder, fold, workers: int
):
    """Yield ``(spec, CellResult, seconds)`` in spec order from a fork pool.

    The pool backend of :func:`~repro.experiments.harness.run_grid`.
    ``recorder`` receives the ``pool`` span, ``pool_start``, one
    ``cell_dispatch`` per spec, each cell's worker events tagged
    ``worker``/``cell``, and — once the caller has taken the cell — its
    ``cell_done``.  ``fold`` is ``None`` or a :class:`MetricsRecorder`
    on the caller's registry: it gets the parent's own events, and each
    worker's registry is merged into ``fold.registry``.  ``seconds`` is
    the worker's wall clock for the cell.
    """
    n_workers = min(workers, len(specs))
    registry = fold.registry if fold is not None else None
    with span(
        "pool", recorder=recorder, level="grid", n_cells=len(specs),
        workers=n_workers,
    ) as pool_ctx:
        state = _WorkerState(
            hin=hin,
            factories=factories,
            fingerprint=graph_fingerprint(hin),
            share_operators=share_operators,
            collect_events=recorder.enabled,
            collect_metrics=registry is not None,
            # Mirror the in-process path: a metrics-only run (no enabled
            # event recorder) keeps MetricsRecorder's probes-on default;
            # otherwise probes follow the event recorder's preference.
            probes=(
                bool(getattr(recorder, "probes", False))
                if recorder.enabled
                else registry is not None
            ),
            span_context=(
                (pool_ctx.trace_id, pool_ctx.span_id)
                if pool_ctx is not None
                else None
            ),
        )
        _emit(
            recorder, fold, "pool_start",
            workers=n_workers, n_cells=len(specs), level="grid",
            start_method="fork",
        )
        for spec in specs:
            _emit(recorder, fold, "cell_dispatch", cell=spec.cell, index=spec.index)
        for spec, outcome in zip(specs, _run_pool(specs, state, workers)):
            _replay_outcome(outcome, spec.cell, recorder, registry)
            yield spec, outcome.result, outcome.seconds
            _emit(
                recorder, fold, "cell_done",
                cell=spec.cell, index=spec.index, worker=outcome.worker,
                mean=outcome.result.mean, seconds=outcome.seconds,
            )
