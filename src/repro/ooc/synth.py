"""The ``ooc`` synthetic scale generator: million-node stores on disk.

The calibrated generators in :mod:`repro.datasets` build an in-RAM
:class:`~repro.hin.graph.HIN` with per-node Python loops — perfect for
paper-scale graphs, hopeless at millions of nodes.  This generator is
fully vectorised and writes a :class:`~repro.ooc.store.GraphStore`
directory *directly*, chunking the feature rows through
``open_memmap`` so no ``(n, d)`` array is ever resident; the adjacency
CSC arrays are assembled in RAM (they are ``O(n_links)``, tens of MB
even at scale) and saved per relation.

Graph model — a homophilous multi-relation network in the spirit of the
paper's datasets: each node gets one latent class; link sources are
uniform and each link lands on a same-class target with probability
``homophily`` (uniform otherwise); features are a noisy one-hot-ish
class signature so the feature walk carries signal too; a
``labeled_fraction`` of nodes reveal their class as supervision.  The
full latent class vector is saved as ``ground_truth.npy`` for accuracy
checks at any scale.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.ooc.publish import StagedDirectory
from repro.ooc.store import (
    MANIFEST_NAME,
    OPERATORS_DIRNAME,
    STORE_FORMAT_VERSION,
    GraphStore,
    _index_dtype,
)
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_fraction, check_positive_int

#: Feature rows written per chunk (bounds the resident feature block).
FEATURE_CHUNK_ROWS = 262144


def generate_ooc_store(
    directory,
    *,
    n_nodes: int = 2_000_000,
    n_links: int = 2_200_000,
    n_relations: int = 2,
    n_labels: int = 2,
    n_features: int = 32,
    labeled_fraction: float = 0.05,
    homophily: float = 0.8,
    feature_noise: float = 0.3,
    seed=0,
) -> GraphStore:
    """Generate a synthetic scale HIN directly as an on-disk store.

    Parameters
    ----------
    directory:
        Target store directory (created, or replaced whole if it is a
        store; anything else is refused: see :mod:`repro.ooc.publish`).
    n_nodes, n_links:
        Node count and *approximate* total link count across relations
        (self-loops and duplicate links are dropped, so the realised
        count is slightly lower; the manifest records the exact one).
    n_relations, n_labels, n_features:
        Link types ``m``, classes ``q`` and feature dimension ``d``.
    labeled_fraction:
        Share of nodes whose class is revealed in the label matrix.
    homophily:
        Probability that a link's target shares the source's class.
    feature_noise:
        Uniform noise amplitude added on top of the class signature.
    seed:
        RNG seed; the store is deterministic given it.

    Returns
    -------
    The opened :class:`GraphStore`.  The latent classes are saved as
    ``ground_truth.npy`` inside the store directory (sha256-tracked in
    the manifest like every other array).
    """
    n = check_positive_int(n_nodes, "n_nodes")
    total_links = check_positive_int(n_links, "n_links")
    m = check_positive_int(n_relations, "n_relations")
    q = check_positive_int(n_labels, "n_labels")
    d = check_positive_int(n_features, "n_features")
    labeled_fraction = check_fraction(labeled_fraction, "labeled_fraction")
    homophily = check_fraction(
        homophily, "homophily", inclusive_low=True, inclusive_high=True
    )
    if feature_noise < 0:
        raise ValidationError(
            f"feature_noise must be non-negative, got {feature_noise}"
        )
    if q > n:
        raise ValidationError(f"n_labels={q} exceeds n_nodes={n}")
    rng = ensure_rng(seed)
    with StagedDirectory(
        directory, MANIFEST_NAME, subdirs=(OPERATORS_DIRNAME,)
    ) as stage:
        # Latent classes: guarantee every class occupied so per-class chains
        # always have a non-empty anchor pool at any labeled_fraction.
        y = rng.integers(0, q, size=n, dtype=np.int64)
        y[:q] = np.arange(q)
        class_order = np.argsort(y, kind="stable")
        class_counts = np.bincount(y, minlength=q)
        class_offsets = np.zeros(q + 1, dtype=np.int64)
        np.cumsum(class_counts, out=class_offsets[1:])

        # Links: vectorised homophilous sampling per relation.
        per_relation = max(total_links // m, 1)
        idx_dtype = _index_dtype(n, total_links)
        relation_nnz: list[int] = []
        for k in range(m):
            src = rng.integers(0, n, size=per_relation, dtype=np.int64)
            dst = rng.integers(0, n, size=per_relation, dtype=np.int64)
            same_class = rng.random(per_relation) < homophily
            if np.any(same_class):
                src_classes = y[src[same_class]]
                offsets = rng.integers(
                    0, class_counts[src_classes], dtype=np.int64
                )
                dst[same_class] = class_order[class_offsets[src_classes] + offsets]
            keep = src != dst
            src, dst = src[keep], dst[keep]
            # Deduplicate (source, target) pairs; flat id sorted source-major
            # == CSC column-major order, so the unique ids *are* the CSC.
            pair_ids = np.unique(src * n + dst)
            col, row = np.divmod(pair_ids, n)
            counts = np.bincount(col, minlength=n)
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            stage.save(f"rel{k}.data.npy", np.ones(row.size, dtype=np.float64))
            stage.save(f"rel{k}.indices.npy", row.astype(idx_dtype))
            stage.save(f"rel{k}.indptr.npy", indptr.astype(idx_dtype))
            relation_nnz.append(int(row.size))

        # Features: noisy class signature, written in row chunks so the
        # resident block stays bounded at any n.
        signature = rng.random((q, d)) + np.eye(q, d) * 2.0
        features = stage.memmap("features.npy", np.float64, (n, d))
        for r0 in range(0, n, FEATURE_CHUNK_ROWS):
            r1 = min(r0 + FEATURE_CHUNK_ROWS, n)
            block = signature[y[r0:r1]]
            if feature_noise > 0:
                block = block + feature_noise * rng.random((r1 - r0, d))
            features[r0:r1] = block
        features.flush()
        del features

        # Supervision: reveal a labeled_fraction of classes (at least one
        # anchor per class — the first q nodes cover every class).
        labels = np.zeros((n, q), dtype=bool)
        labeled = rng.random(n) < labeled_fraction
        labeled[:q] = True
        rows = np.flatnonzero(labeled)
        labels[rows, y[rows]] = True
        stage.save("labels.npy", labels)
        stage.save("ground_truth.npy", y)

        stage.publish({
            "format_version": STORE_FORMAT_VERSION,
            "n_nodes": n,
            "n_relations": m,
            "n_labels": q,
            "n_features": d,
            "relation_names": [f"relation_{k}" for k in range(m)],
            "label_names": [f"class_{c}" for c in range(q)],
            "node_names": "default",
            "multilabel": False,
            "metadata": {
                "generator": "ooc",
                "seed": int(seed) if np.isscalar(seed) else None,
                "homophily": homophily,
                "labeled_fraction": labeled_fraction,
                "feature_noise": float(feature_noise),
                "requested_links": total_links,
            },
            "features": "dense",
            "index_dtype": np.dtype(idx_dtype).name,
            "nnz": sum(relation_nnz),
            "relation_nnz": relation_nnz,
            "graph_fingerprint": None,
        })
    return GraphStore.open(directory)
