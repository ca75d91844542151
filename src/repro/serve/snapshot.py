"""Immutable serving snapshots of a fitted T-Mark state.

T-Mark's entire inference output is the stationary pair ``(X, Z)`` per
class: once fitted, "classify node v", "top-k candidates for class c"
and "relation weights for class c" are all *reads* against frozen
arrays.  A :class:`Snapshot` freezes one such state — scores, argmax
labels, precomputed per-class rankings and the per-class
:class:`~repro.obs.health.ChainHealth` verdicts of the fit that
produced it — behind read-only views, so any number of reader threads
can answer queries from it without locks while the next state
reconverges elsewhere.

The daemon (:mod:`repro.serve.daemon`) publishes a new state by
*atomic reference swap*: build a fresh ``Snapshot``, then assign it to
the single shared attribute.  Readers load that reference once per
request and answer entirely from the object they loaded, so a request
observes either the old state or the new one — never a mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from repro.errors import ValidationError
from repro.obs.health import health_from_result, worst_status

#: Per-class ranking depth precomputed at snapshot build time.  ``topk``
#: requests beyond this fall back to a live argsort (rare, still
#: read-only) — the cache keeps the common case allocation-free.
TOPK_CACHE = 100


def _frozen(array: np.ndarray) -> np.ndarray:
    """A C-contiguous copy with the writeable flag cleared."""
    copy = np.array(array, dtype=float, copy=True, order="C")
    copy.setflags(write=False)
    return copy


@dataclass(frozen=True)
class Snapshot:
    """One immutable, fully precomputed serving state.

    Attributes
    ----------
    version:
        Monotonic publication counter (0 = the initial fit; each
        reconverge-and-swap increments it).
    node_names, label_names, relation_names:
        Names aligned with the score array axes.
    node_scores:
        ``(n, q)`` stationary node distributions (read-only); column
        ``c`` sums to one over the nodes.
    relation_scores:
        ``(m, q)`` stationary relation distributions (read-only).
    labels:
        Argmax label name per node, precomputed.
    health:
        ``label -> status`` verdicts from the producing fit — the
        readiness substrate (:attr:`ready`).
    """

    version: int
    node_names: tuple[str, ...]
    label_names: tuple[str, ...]
    relation_names: tuple[str, ...]
    node_scores: np.ndarray
    relation_scores: np.ndarray
    labels: tuple[str, ...]
    health: dict = field(default_factory=dict)
    _node_index: Mapping[str, int] = field(default_factory=dict, repr=False)
    _topk_indices: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_result(cls, result, *, version: int = 0, node_index=None) -> "Snapshot":
        """Freeze a fitted :class:`~repro.core.tmark.TMarkResult`.

        The result must carry ``node_names`` (persistence format 2) —
        a snapshot without node identity cannot answer name-keyed
        queries.  ``node_index`` is an existing read-only
        ``name -> row`` mapping for those names (a HIN's
        :attr:`~repro.hin.graph.HIN.node_positions`); one is built when
        it is not given.
        """
        if result.node_names is None:
            raise ValidationError(
                "result has no node_names; a serving snapshot needs node "
                "identity (persistence format 2)"
            )
        node_scores = _frozen(result.node_scores)
        n, q = node_scores.shape
        if len(result.node_names) != n:
            raise ValidationError(
                f"result has {len(result.node_names)} node_names for "
                f"{n} score rows"
            )
        argmax = np.argmax(node_scores, axis=1)
        labels = tuple(result.label_names[c] for c in argmax)
        depth = min(TOPK_CACHE, n)
        # Per-class descending ranking, stable so score ties break by
        # node index exactly like a full argsort would.
        order = np.argsort(-node_scores, axis=0, kind="stable")[:depth, :]
        health = {
            verdict.label: verdict.status
            for verdict in health_from_result(result)
        }
        return cls(
            version=int(version),
            node_names=tuple(result.node_names),
            label_names=tuple(result.label_names),
            relation_names=tuple(result.relation_names),
            node_scores=node_scores,
            relation_scores=_frozen(result.relation_scores),
            labels=labels,
            health=health,
            _node_index=(
                {name: i for i, name in enumerate(result.node_names)}
                if node_index is None
                else node_index
            ),
            _topk_indices=np.ascontiguousarray(order.T),
        )

    @classmethod
    def from_session(cls, session, *, version: int = 0) -> "Snapshot":
        """Freeze the current state of a fitted ``StreamingSession``."""
        result = session.result
        if result is None:
            raise ValidationError(
                "session has no fitted result; call session.fit() first"
            )
        hin = session.hin
        if result.node_names is None:
            # A live session knows its graph; borrow the node identity
            # the result would have carried if persisted under format 2.
            from dataclasses import replace

            result = replace(result, node_names=hin.node_names)
        # The graph's own name -> index mapping serves the snapshot when
        # the result is aligned with it (the usual case after an update),
        # so an update does not rebuild an n-entry dict.
        node_index = (
            hin.node_positions if tuple(result.node_names) == hin.node_names else None
        )
        return cls.from_result(result, version=version, node_index=node_index)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes the snapshot can classify."""
        return len(self.node_names)

    @property
    def worst_health(self) -> str:
        """The most severe per-class status (``healthy`` when empty)."""
        return worst_status(self.health.values())

    @property
    def ready(self) -> bool:
        """True when every chain of the producing fit was ``healthy``.

        Mirrors the ``health`` CLI's exit-4 semantics: any
        ``not_converged`` / ``stalled`` / ``oscillating`` / ``diverging``
        chain makes the snapshot not ready (HTTP 503 on ``/healthz``).
        """
        return self.worst_health == "healthy"

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def classify(self, names) -> list[dict]:
        """Per-class confidences + argmax label for each named node.

        Raises :class:`~repro.errors.ValidationError` naming every
        unknown node.  Each entry reports the raw stationary scores
        (column-stochastic mass — comparable *within* a class across
        nodes), the row-normalised per-class confidence, and the argmax
        label.
        """
        names = list(names)
        index = self._node_index
        unknown = [n for n in names if n not in index]
        if unknown:
            raise ValidationError(
                f"unknown node(s): {', '.join(map(str, unknown[:5]))}"
                + (f" (+{len(unknown) - 5} more)" if len(unknown) > 5 else "")
            )
        rows = [index[name] for name in names]
        # One gather, then whole-array sums and divisions: ``sum(axis=1)``
        # on the C-ordered block adds each row pairwise exactly as
        # ``row.sum()`` does, so every float is the per-row one.
        scores = self.node_scores[rows]
        totals = scores.sum(axis=1)
        live = totals > 0.0
        confidence = np.full_like(scores, 1.0 / scores.shape[1])
        confidence[live] = scores[live] / totals[live, None]
        label_names = self.label_names
        return [
            {
                "node": name,
                "label": self.labels[row],
                "scores": dict(zip(label_names, score_row)),
                "confidence": dict(zip(label_names, confidence_row)),
            }
            for name, row, score_row, confidence_row in zip(
                names, rows, scores.tolist(), confidence.tolist()
            )
        ]

    def topk(self, label, k: int = 10) -> list[dict]:
        """The ``k`` highest-scoring nodes for ``label`` (name + score)."""
        c = self._label_idx(label)
        k = int(k)
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        k = min(k, self.n_nodes)
        if self._topk_indices is not None and k <= self._topk_indices.shape[1]:
            indices = self._topk_indices[c, :k]
        else:
            indices = np.argsort(-self.node_scores[:, c], kind="stable")[:k]
        return [
            {
                "node": self.node_names[i],
                "score": float(self.node_scores[i, c]),
                "label": self.labels[i],
            }
            for i in indices
        ]

    def relations(self, label) -> list[dict]:
        """Relations ranked by stationary importance ``z`` for ``label``."""
        c = self._label_idx(label)
        order = np.argsort(-self.relation_scores[:, c], kind="stable")
        return [
            {
                "relation": self.relation_names[i],
                "weight": float(self.relation_scores[i, c]),
            }
            for i in order
        ]

    def _label_idx(self, label) -> int:
        if isinstance(label, str):
            try:
                return self.label_names.index(label)
            except ValueError:
                raise ValidationError(f"unknown label name: {label!r}") from None
        c = int(label)
        if not 0 <= c < len(self.label_names):
            raise ValidationError(
                f"label index {c} out of range [0, {len(self.label_names)})"
            )
        return c
