"""Streaming T-Mark: apply deltas, update operators, reconverge warm.

:class:`StreamingSession` owns the triple *(evolving HIN, incremental
operators, last fitted result)*.  Each :meth:`apply` call updates the
cached ``(O, R, W)`` through :class:`IncrementalOperators` and re-runs
the per-class chains warm-started from the previous stationary ``x`` /
``z`` (padded with uniform mass for nodes the batch added), so the walk
reconverges in a fraction of the cold-start iterations — the streaming
analogue of the warm-start ablation bench.

A session can also :meth:`resume` from a persisted
:class:`~repro.core.tmark.TMarkResult`: format-2 archives carry the
chain-start metadata (``node_names``) needed to check that the saved
stationary state still lines up with the graph's node indexing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.tmark import TMark, TMarkResult
from repro.errors import ValidationError
from repro.hin.graph import HIN
from repro.obs.health import worst_status
from repro.obs.recorder import get_recorder
from repro.obs.spans import span
from repro.stream.delta import as_batch
from repro.stream.journal import DeltaLog
from repro.stream.operators import IncrementalOperators


@dataclass(frozen=True)
class StreamUpdate:
    """Telemetry for one applied delta batch.

    Attributes
    ----------
    batch_index:
        0-based position of the batch in this session's stream.
    n_deltas, op_counts:
        Batch size and its per-op breakdown.
    n_nodes, n_new_nodes:
        Node count after the batch and how many the batch added.
    iterations, converged:
        Chain iterations the refit needed (max over classes) and whether
        every class chain converged — *iterations-to-reconverge* is the
        headline number of the streaming bench.
    warm:
        Whether the refit was warm-started from the previous stationary
        state (``False`` only for the first fit of a fresh session).
    apply_seconds, fit_seconds:
        Wall-clock split between the operator patch and the refit.
    health:
        Per-class convergence verdicts from :mod:`repro.obs.health`,
        mapping label name to status (``healthy`` / ``not_converged`` /
        ``stalled`` / ``oscillating`` / ``diverging``).
    """

    batch_index: int
    n_deltas: int
    op_counts: dict
    n_nodes: int
    n_new_nodes: int
    iterations: int
    converged: bool
    warm: bool
    apply_seconds: float
    fit_seconds: float
    health: dict

    @property
    def worst_health(self) -> str:
        """The most severe per-class status (``healthy`` when empty)."""
        return worst_status(self.health.values())


class StreamingSession:
    """Incremental T-Mark over an evolving HIN.

    Parameters
    ----------
    hin:
        The seed graph.
    model:
        A configured (not necessarily fitted) :class:`TMark`; defaults to
        ``TMark()``.  The session builds its incremental operators with
        the model's similarity settings so every refit can consume them
        directly.

    Examples
    --------
    >>> from repro.datasets import make_worked_example
    >>> from repro.stream import GraphDelta, StreamingSession
    >>> session = StreamingSession(make_worked_example())
    >>> _ = session.fit()
    >>> update = session.apply([GraphDelta.set_label("p2", ["DB"])])
    >>> update.warm
    True
    """

    def __init__(self, hin: HIN, model: TMark | None = None):
        self._model = TMark() if model is None else model
        if not isinstance(self._model, TMark):
            raise ValidationError(
                f"model must be a TMark, got {type(self._model).__name__}"
            )
        self._ops = IncrementalOperators(
            hin,
            similarity_top_k=self._model.similarity_top_k,
            similarity_metric=self._model.similarity_metric,
        )
        self._result: TMarkResult | None = None
        self._n_batches = 0

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def hin(self) -> HIN:
        """The current graph (seed plus every applied batch)."""
        return self._ops.hin

    @property
    def model(self) -> TMark:
        """The session\'s TMark model (fit in place on each update)."""
        return self._model

    @property
    def operators(self) -> IncrementalOperators:
        """The live incremental operator set backing the session."""
        return self._ops

    @property
    def result(self) -> TMarkResult | None:
        """The most recent fitted result, or ``None`` before any fit."""
        return self._result

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(self, *, recorder=None) -> TMarkResult:
        """Cold-fit the model on the current graph and cache the result.

        The fit runs under the model's own settings, its ``solver``
        included (see :mod:`repro.solvers`).
        """
        self._model.fit(self.hin, operators=self._ops.operators, recorder=recorder)
        self._result = self._model.result_
        return self._result

    def apply(self, deltas, *, recorder=None) -> StreamUpdate:
        """Apply one delta batch: patch operators, warm-refit, report.

        Emits a ``delta_apply`` event for the graph/operator update and a
        ``reconverge`` event for the refit on the given or ambient
        recorder.  The refit warm-starts from the previous stationary
        pair when one exists.
        """
        rec = get_recorder() if recorder is None else recorder
        batch = as_batch(deltas)
        n_old = self.hin.n_nodes
        apply_started = time.perf_counter()
        with span("apply_deltas", recorder=rec, n_deltas=len(batch)):
            self._ops.apply(batch, recorder=rec)
        apply_seconds = time.perf_counter() - apply_started
        n_new = self.hin.n_nodes
        if rec.enabled:
            rec.emit(
                "delta_apply",
                batch_index=self._n_batches,
                n_deltas=len(batch),
                op_counts=batch.op_counts(),
                n_nodes=n_new,
                n_new_nodes=n_new - n_old,
                seconds=apply_seconds,
            )

        starts = self._warm_starts(n_new)
        warm = starts is not None
        fit_started = time.perf_counter()
        with span("reconverge", recorder=rec, warm=warm, n_nodes=n_new):
            self._model.fit(
                self.hin,
                starts=starts,
                operators=self._ops.operators,
                recorder=rec,
            )
        fit_seconds = time.perf_counter() - fit_started
        self._result = self._model.result_
        iterations = max(h.n_iterations for h in self._result.histories)
        converged = all(h.converged for h in self._result.histories)
        health = {verdict.label: verdict.status for verdict in self._result.health}
        if rec.enabled:
            rec.emit(
                "reconverge",
                batch_index=self._n_batches,
                warm=warm,
                iterations=iterations,
                converged=converged,
                n_nodes=n_new,
                seconds=fit_seconds,
                health=health,
                worst_health=worst_status(health.values()),
            )
        update = StreamUpdate(
            batch_index=self._n_batches,
            n_deltas=len(batch),
            op_counts=batch.op_counts(),
            n_nodes=n_new,
            n_new_nodes=n_new - n_old,
            iterations=iterations,
            converged=converged,
            warm=warm,
            apply_seconds=apply_seconds,
            fit_seconds=fit_seconds,
            health=health,
        )
        self._n_batches += 1
        return update

    def replay(self, log: DeltaLog, *, recorder=None) -> list[StreamUpdate]:
        """Apply every batch of a :class:`DeltaLog` in order."""
        if not isinstance(log, DeltaLog):
            raise ValidationError(
                f"expected a DeltaLog, got {type(log).__name__}"
            )
        return [self.apply(batch, recorder=recorder) for batch in log.batches()]

    def _warm_starts(self, n_new: int):
        """The previous stationary pair, padded for newly added nodes.

        New nodes get uniform mass ``1/n_new`` in every class column —
        the agnostic prior; the per-column simplex projection inside the
        chain runner absorbs the resulting slight denormalisation.
        """
        previous = self._result
        if previous is None:
            return None
        x0 = previous.node_scores
        grow = n_new - x0.shape[0]
        if grow > 0:
            pad = np.full((grow, x0.shape[1]), 1.0 / n_new)
            x0 = np.vstack([x0, pad])
        return (x0, previous.relation_scores)

    # ------------------------------------------------------------------
    # Resuming from a persisted result
    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls, hin: HIN, result: TMarkResult, model: TMark | None = None
    ) -> "StreamingSession":
        """Rebuild a session around ``hin`` seeded with a saved result.

        The result must carry ``node_names`` (persistence format 2) and
        they must be a prefix of ``hin.node_names`` — streamed graphs
        only ever append nodes, so a saved stationary ``x`` stays
        row-aligned with any later snapshot of the same stream.  Label
        and relation names must match exactly.
        """
        if result.node_names is None:
            raise ValidationError(
                "result has no node_names (saved with persistence format 1?); "
                "cannot verify chain-start alignment"
            )
        if tuple(result.label_names) != tuple(hin.label_names):
            raise ValidationError(
                f"result label names {result.label_names} do not match the "
                f"HIN's {hin.label_names}"
            )
        if tuple(result.relation_names) != tuple(hin.relation_names):
            raise ValidationError(
                f"result relation names {result.relation_names} do not match "
                f"the HIN's {hin.relation_names}"
            )
        saved = tuple(result.node_names)
        if hin.node_names[: len(saved)] != saved:
            raise ValidationError(
                "result node_names are not a prefix of the HIN's node_names; "
                "the saved chains are not row-aligned with this graph"
            )
        session = cls(hin, model)
        session._result = result
        return session
