"""Delta-maintained T-Mark operators: the ``(O, R, W)`` triple of an evolving HIN.

:class:`IncrementalOperators` caches the operator triple for a HIN and,
given a :class:`~repro.stream.delta.DeltaBatch`, brings it to the
post-batch state:

* ``O`` and ``R`` — Eq. 1 and 2 make them pure functions of the
  adjacency tensor, and every batch already materialises the post-batch
  tensor, so a batch that edits a link or adds a node rebuilds both
  from it with :func:`~repro.tensor.transition.build_transition_tensors`.
  Label-only and feature-only batches keep the same objects;
* ``W`` — link and label edits never touch it.  When
  :func:`~repro.core.features.feature_walk_form` picks the exact
  factored form (cosine, non-negative features, ``2 (d + 1) < n``) a
  feature or add-node edit rebuilds ``W`` cold through
  :func:`~repro.core.features.feature_walk_matrix`, which costs only
  ``O(n d)`` and keeps no ``n x n`` buffer.  Dense cosine ``W`` with
  ``top_k=None`` (signed features, or ``d`` too large) updates the
  maintained cosine-similarity rows/columns; a batch that flips the
  selector's choice (say, a feature turning negative) rebuilds ``W``
  cold.  The other metrics / ``top_k`` / sparse-feature configurations
  recompute ``W`` in full.

**Exactness contract** (pinned by ``tests/stream/test_operators.py``):
after ``apply(batch)`` the operators equal ``build_operators`` on
``apply_batch(hin, batch)`` bitwise.  ``O`` and ``R`` *are* that
rebuild; ``W`` is either rebuilt or, when feature edits route through
the incremental similarity update, patched with panels of the cold
cosine build's own kernel (:func:`~repro.core.features.cosine_panel`).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

from repro.core.features import (
    cosine_panel,
    feature_walk_form,
    feature_walk_matrix,
    normalise_similarity_columns,
    unit_feature_rows,
    walk_matrix_form,
)
from repro.core.tmark import TMarkOperators
from repro.errors import ValidationError
from repro.hin.graph import HIN
from repro.obs.recorder import get_recorder
from repro.stream.delta import ResolvedBatch, materialize_batch, resolve_batch
from repro.tensor.transition import build_transition_tensors


class IncrementalOperators:
    """The T-Mark operator triple, kept in sync with an evolving HIN.

    Parameters
    ----------
    hin:
        The seed graph; its operators are built cold on construction.
    similarity_top_k, similarity_metric:
        As in :func:`repro.core.tmark.build_operators`.  With cosine and
        ``top_k=None`` (the paper's configuration), non-negative
        features and ``2 (d + 1) < n`` give the exact factored ``W``,
        which a feature batch rebuilds cold in ``O(n d)`` with no
        ``n x n`` buffer; signed features or a large ``d`` give the
        dense ``W``, patched through a maintained similarity matrix.
        Other settings stay correct via a full ``W`` recompute on
        feature-touching batches.
    """

    def __init__(
        self,
        hin: HIN,
        *,
        similarity_top_k: int | None = None,
        similarity_metric: str = "cosine",
    ):
        if not isinstance(hin, HIN):
            raise ValidationError(f"expected a HIN, got {type(hin).__name__}")
        self._hin = hin
        self._top_k = similarity_top_k
        self._metric = similarity_metric
        self._n = hin.n_nodes
        self._m = hin.n_relations
        self._o, self._r = build_transition_tensors(hin.tensor)
        self._build_w(hin.features)

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def hin(self) -> HIN:
        """The graph the cached operators currently describe."""
        return self._hin

    @property
    def operators(self) -> TMarkOperators:
        """The current operator triple, ready for ``TMark.fit(operators=...)``."""
        return TMarkOperators(
            o_tensor=self._o,
            r_tensor=self._r,
            w_matrix=self._w,
            shape=(self._n, self._m),
            similarity_top_k=self._top_k,
            similarity_metric=self._metric,
        )

    def apply(self, deltas, *, recorder=None) -> HIN:
        """Apply a delta batch: update the operators, return the new HIN.

        Emits one ``operator_patch`` event (touched column/fibre counts,
        wall-clock) on the given or ambient recorder.
        """
        rec = get_recorder() if recorder is None else recorder
        started = time.perf_counter() if rec.enabled else 0.0
        resolved = resolve_batch(self._hin, deltas)
        new_hin = materialize_batch(self._hin, resolved)

        self._n = resolved.n_new
        if resolved.touches_links or resolved.new_nodes:
            self._o, self._r = build_transition_tensors(new_hin.tensor)
        full_w_recompute = self._patch_w(resolved, new_hin)
        self._hin = new_hin

        if rec.enabled:
            link_ops = resolved.link_ops
            rec.emit(
                "operator_patch",
                n_link_ops=len(link_ops),
                n_new_nodes=len(resolved.new_nodes),
                n_nodes=self._n,
                touched_columns=len({(k, j) for _, _, j, k, _ in link_ops}),
                touched_fibres=len({(i, j) for _, i, j, _, _ in link_ops}),
                full_w_recompute=full_w_recompute,
                w_form=walk_matrix_form(self._w)[0],
                seconds=time.perf_counter() - started,
            )
        return new_hin

    def _build_w(self, features) -> None:
        incremental = (
            self._metric == "cosine"
            and self._top_k is None
            and not sp.issparse(features)
            and feature_walk_form(features) == "dense"
        )
        self._sims = None
        if not incremental:
            self._unit = None
            self._w_n = 0
            self._w = feature_walk_matrix(
                features, top_k=self._top_k, metric=self._metric
            )
            return
        # The buffers are capacity-managed: rows past the logical count
        # ``_w_n`` are always zero, growth reallocates with headroom, and
        # every read slices ``[:n]`` — so a delta batch never pays an
        # O(n * d) copy just to add a node.
        self._unit, norms = unit_feature_rows(features)
        self._w_n = self._unit.shape[0]
        # The cold build's own kernel, so the buffer holds its bits.
        self._sims = cosine_panel(self._unit, norms == 0, slice(None))
        self._w = normalise_similarity_columns(self._sims.copy())

    # ------------------------------------------------------------------
    # W patching
    # ------------------------------------------------------------------
    def _patch_w(self, resolved: ResolvedBatch, new_hin: HIN) -> bool:
        """Bring ``W`` to the post-batch features; ``True`` if rebuilt cold."""
        if not resolved.touches_features:
            return False
        if self._unit is None or feature_walk_form(new_hin.features) != "dense":
            # No maintained similarity, or the batch made the factored
            # form exact and cheaper (the features lost their last
            # negative entry, or growth passed the cost rule).
            self._build_w(new_hin.features)
            return True
        n_old = self._w_n
        n = self._n
        if n > self._unit.shape[0]:
            # Out of capacity: reallocate with headroom so a long run of
            # growth batches amortises to O(1) copies per node.
            cap = max(n, self._unit.shape[0] + max(64, self._unit.shape[0] // 8))
            unit = np.zeros((cap, self._unit.shape[1]))
            unit[:n_old] = self._unit[:n_old]
            self._unit = unit
            sims = np.zeros((cap, cap))
            sims[:n_old, :n_old] = self._sims[:n_old, :n_old]
            self._sims = sims
        changed = [n_old + offset for offset in range(len(resolved.new_nodes))]
        changed += [idx for idx, _ in resolved.feature_ops]
        new_features = np.asarray(new_hin.features, dtype=float)
        unit = self._unit[:n]
        # The cold build's own normaliser: a 1-D norm is a BLAS dot,
        # whose bits differ from the row-wise pairwise sum.
        unit[changed] = unit_feature_rows(new_features[changed])[0]
        # One panel over the changed nodes refreshes their similarity
        # columns and, by symmetry, rows: the kernel's panels equal the
        # full matrix's columns bit for bit.  A featureless node's unit
        # row is exactly zero.
        panel = cosine_panel(unit, ~unit.any(axis=1), changed)
        self._sims[:n, changed] = panel
        self._sims[changed, :n] = panel.T
        self._w_n = n
        # Same floats as normalise_similarity_columns, without copying
        # the n x n similarity buffer on the common (no zero column) path.
        sims_view = self._sims[:n, :n]
        col_sums = sims_view.sum(axis=0)
        if np.any(col_sums == 0):
            self._w = normalise_similarity_columns(sims_view.copy())
        else:
            self._w = sims_view / col_sums[None, :]
        return False
