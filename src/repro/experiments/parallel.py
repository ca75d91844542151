"""The grid's cells on the fork pool of :mod:`repro.forkpool`.

The grid of :func:`~repro.experiments.harness.run_grid` is embarrassingly
parallel by construction: every cell's RNG stream is derived from
``(seed, method_name, fraction)`` alone (never from grid position), so
cells can run in any order — or in different processes — and produce
byte-identical results.  ``run_grid`` is the one grid loop; with
``workers > 1`` it takes its cells from :func:`cells_on_pool`, and this
module holds only what is particular to grid cells:

* The parent sends only tiny :class:`CellSpec` records, one to each idle
  worker and the next one as a reply arrives, so cells balance across
  the workers.  The heavyweight shared context — the ground-truth
  :class:`~repro.hin.graph.HIN` and the (frequently unpicklable lambda)
  method factories — is held by the :class:`_CellWorker` handler, which
  the workers inherit through the fork.
* Each worker builds the cached ``(O, R, W)`` operator triple at most
  once per similarity setting, memoised in its copy of the handler's
  operator pool — the parallel analogue of
  :func:`~repro.experiments.harness.shared_tmark_operators`.
* When the caller's recorder is enabled, a worker collects its cell's
  events into a :class:`~repro.obs.recorder.ListRecorder` (with the
  caller's ``probes`` preference) and ships them back with the scores.
  The parent replays them through the caller's recorder, tagged with
  ``worker`` (the worker PID) and ``cell``, so ``trace-summary``,
  ``health`` and ``trace-diff`` keep working on parallel traces and a
  counting sink folds them as it would have in process.  Events are
  the only channel: no worker state but scores, seconds and events
  comes back.
* A failed, dead or stalled worker fails the whole grid with a
  :class:`~repro.forkpool.WorkerError` naming the cell.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

from repro.forkpool import ForkPool
from repro.hin.graph import HIN
from repro.obs.recorder import ListRecorder
from repro.obs.spans import SpanContext, activate_span, span


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
class _Outcome:
    """Everything one worker ships back for one cell."""

    result: object
    seconds: float
    worker: int
    events: list


@dataclass
class _CellWorker:
    """The pool's handler: one grid cell per request, in a worker.

    Built by the parent and inherited through the fork, so the graph and
    the factories are never pickled.  Each worker fills its own copy of
    ``operator_pool``.
    """

    hin: HIN
    factories: dict[str, Callable[[], object]]
    operator_pool: dict
    collect_events: bool
    probes: bool
    #: The parent's ``pool`` span, so worker spans link back into the
    #: coordinator's trace (``None`` when the parent is not tracing).
    pool_span: SpanContext | None

    def __call__(self, spec: CellSpec) -> _Outcome:
        from repro.experiments.harness import evaluate_cell

        recorder = ListRecorder(enabled=self.collect_events, probes=self.probes)
        started = time.perf_counter()
        with activate_span(self.pool_span):
            with span(
                "cell", recorder=recorder,
                method=spec.method, fraction=spec.fraction,
            ):
                result = evaluate_cell(
                    self.hin,
                    self.factories[spec.method],
                    spec,
                    operator_pool=self.operator_pool,
                    recorder=recorder,
                )
        return _Outcome(
            result=result,
            seconds=time.perf_counter() - started,
            worker=os.getpid(),
            events=recorder.events,
        )


def _run_cells(specs, worker: _CellWorker, n_workers: int) -> list[_Outcome]:
    """Run ``specs`` on ``n_workers`` forks; return outcomes in spec order.

    Each idle worker gets the next cell.  The first failure raises
    :class:`~repro.forkpool.WorkerError` and kills the pool.
    """
    outcomes = [None] * len(specs)
    running = {}  # worker -> spec position of its cell
    with ForkPool([worker] * n_workers, cap_blas=True) as pool:

        def collect() -> int:
            index, outcome = pool.next_reply()
            outcomes[running.pop(index)] = outcome
            return index

        idle = list(range(n_workers))
        for position, spec in enumerate(specs):
            index = idle.pop() if idle else collect()
            pool.send(index, spec, f"grid cell {spec.cell!r}")
            running[index] = position
        while running:
            collect()
    return outcomes


def cells_on_pool(hin: HIN, factories, specs, *, recorder, workers: int):
    """Yield ``(spec, CellResult, seconds)`` in spec order from a fork pool.

    The pool backend of :func:`~repro.experiments.harness.run_grid`.
    ``recorder`` receives the ``pool`` span, ``pool_start``, one
    ``cell_dispatch`` per spec, each cell's worker events tagged
    ``worker``/``cell``, and — once the caller has taken the cell — its
    ``cell_done``.  ``seconds`` is the worker's wall clock for the cell.
    """
    n_workers = min(workers, len(specs))
    with span(
        "pool", recorder=recorder, level="grid", n_cells=len(specs),
        workers=n_workers,
    ) as pool_ctx:
        worker = _CellWorker(
            hin=hin,
            factories=factories,
            operator_pool={},
            collect_events=recorder.enabled,
            probes=recorder.probes,
            pool_span=pool_ctx,
        )
        if recorder.enabled:
            recorder.emit(
                "pool_start", workers=n_workers, n_cells=len(specs),
                level="grid", start_method="fork",
            )
            for spec in specs:
                recorder.emit("cell_dispatch", cell=spec.cell, index=spec.index)
        for spec, outcome in zip(specs, _run_cells(specs, worker, n_workers)):
            for event in outcome.events:
                fields = {k: v for k, v in event.items() if k != "event"}
                recorder.emit(
                    event["event"], worker=outcome.worker, cell=spec.cell, **fields
                )
            yield spec, outcome.result, outcome.seconds
            if recorder.enabled:
                recorder.emit(
                    "cell_done", cell=spec.cell, index=spec.index,
                    worker=outcome.worker, mean=outcome.result.mean,
                    seconds=outcome.seconds,
                )
