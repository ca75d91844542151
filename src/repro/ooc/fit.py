"""Store-backed T-Mark fits: ``fit_from_store``.

Glue between a :class:`~repro.ooc.store.GraphStore` and
:meth:`TMark.fit_operators`: builds (or reuses) the chunked operator
cache, pulls the supervision straight off the mmap'd label matrix, and
runs the per-class chains without ever materialising a
:class:`~repro.hin.graph.HIN` — at two million nodes even the node-name
tuple would cost hundreds of MB, so names are only attached to the
result on small stores.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.tmark import TMark
from repro.errors import ValidationError
from repro.ooc.build import DEFAULT_CHUNK_SIZE, build_chunked_operators
from repro.ooc.store import GraphStore

#: Stores at or below this node count get their names attached to the
#: :class:`TMarkResult`; larger stores return ``node_names=None`` to keep
#: the result O(q * n) floats, not strings.
MAX_AUTO_NODE_NAMES = 100_000


def fit_from_store(
    store,
    model: TMark,
    *,
    labels=None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    starts=None,
    recorder=None,
    shards: int | None = None,
    workers: int | None = None,
) -> TMark:
    """Fit T-Mark out-of-core against an on-disk graph store.

    Parameters
    ----------
    store:
        An open :class:`GraphStore` or a store directory path.
    model:
        The :class:`TMark` instance to fit; its settings (``solver``
        included) drive the fit.
    labels:
        Optional ``(n, q)`` boolean supervision matrix overriding the
        store's — the masked-split entry point (the stored label matrix
        usually carries *all* known labels).
    chunk_size:
        Columns per block for operator construction, rows per block for
        propagation.
    starts:
        Optional warm-start ``(X0, Z0)`` pair, as in :meth:`TMark.fit`.
    recorder:
        Obs recorder for build chunks + chain telemetry.
    shards, workers:
        Run the per-iteration propagation sharded across fork workers
        (see :mod:`repro.shard`).  Each worker streams its contiguous
        row range in ``chunk_size``-row blocks, so a multi-million-node
        store runs multi-core with one block resident per worker.
        Scores are byte-identical for any shard count.

    Returns
    -------
    The fitted model; ``model.result_`` holds the stationary scores,
    byte-identical to :meth:`TMark.fit` on the same graph: both build
    ``W`` with :func:`repro.core.features.feature_walk_matrix`.  ``W``
    is only built when the model's ``beta`` is positive — a ``gamma=0``
    fit never touches the feature matrix, which is what makes
    million-node fits feasible whatever the features.
    """
    if isinstance(store, (str, Path)):
        store = GraphStore.open(store)
    if not isinstance(store, GraphStore):
        raise ValidationError(
            f"expected a GraphStore or path, got {type(store).__name__}"
        )
    operators = build_chunked_operators(
        store,
        similarity_top_k=model.similarity_top_k,
        similarity_metric=model.similarity_metric,
        chunk_size=chunk_size,
        build_w=model.beta > 0,
        recorder=recorder,
    )
    label_matrix = store.label_matrix if labels is None else labels
    label_matrix = np.asarray(label_matrix, dtype=bool)
    if labels is not None and label_matrix.shape != (store.n_nodes, store.n_labels):
        raise ValidationError(
            f"labels must have shape ({store.n_nodes}, {store.n_labels}), "
            f"got {label_matrix.shape}"
        )
    attach_names = store.n_nodes <= MAX_AUTO_NODE_NAMES
    model.fit_operators(
        operators,
        label_matrix,
        label_names=store.label_names,
        relation_names=store.relation_names,
        node_names=store.node_names() if attach_names else None,
        starts=starts,
        recorder=recorder,
        shards=shards,
        workers=workers,
    )
    return model
