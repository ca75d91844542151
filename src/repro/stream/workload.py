"""Synthetic delta workloads for exercising the streaming layer.

:func:`synthetic_delta_log` draws a reproducible mixed stream of edits
against a concrete HIN — link churn, relabeling, feature drift, node
arrivals — committed in fixed-size batches.  It maintains a mirror of
the evolving link structure so every generated delta is valid at its
position in the journal (removals target links that exist, added nodes
are wired into the graph before anything else references them).

Used by the ``stream`` experiment/CLI, the equivalence tests (randomised
delta sequences) and ``benchmarks/bench_stream_updates.py``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.hin.graph import HIN
from repro.stream.delta import GraphDelta
from repro.stream.journal import DeltaLog
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_positive_int

#: Default op mix: link churn dominates, as in a citation/tagging stream.
DEFAULT_OP_WEIGHTS = {
    "add_link": 0.45,
    "remove_link": 0.20,
    "set_label": 0.15,
    "update_features": 0.10,
    "add_node": 0.10,
}


def synthetic_delta_log(
    hin: HIN,
    n_deltas: int,
    *,
    batch_size: int = 10,
    seed=None,
    op_weights: dict | None = None,
) -> DeltaLog:
    """Generate a valid ``n_deltas``-edit journal against ``hin``.

    Parameters
    ----------
    hin:
        The seed graph the journal will be replayed on.
    n_deltas:
        Total number of deltas (a node arrival counts as two: the
        ``add_node`` plus the ``add_link`` wiring it in).
    batch_size:
        Commit marker interval: a batch is committed as soon as the
        stream reaches the next multiple of ``batch_size``, so batches
        hold ``batch_size`` deltas, or one more or one fewer around a
        node arrival that straddles a boundary.
    seed:
        Anything :func:`repro.utils.rng.ensure_rng` accepts.
    op_weights:
        Optional ``{op: weight}`` mix overriding
        :data:`DEFAULT_OP_WEIGHTS`; missing ops get weight 0.
    """
    n_deltas = check_positive_int(n_deltas, "n_deltas")
    batch_size = check_positive_int(batch_size, "batch_size")
    rng = ensure_rng(seed)
    weights = dict(DEFAULT_OP_WEIGHTS if op_weights is None else op_weights)
    ops = [op for op, w in weights.items() if w > 0]
    if not ops:
        raise ValidationError("op_weights must give positive weight to some op")
    probs = np.array([float(weights[op]) for op in ops])
    if np.any(probs < 0) or not np.all(np.isfinite(probs)):
        raise ValidationError(f"op weights must be finite and non-negative: {weights}")
    probs = probs / probs.sum()

    node_names = list(hin.node_names)
    relation_names = list(hin.relation_names)
    label_names = list(hin.label_names)
    features = hin.features_dense()
    d = hin.n_features

    # Mirror of the undirected link structure: canonical (a, b, k) with
    # a <= b where both converse entries exist (one entry for a == b).
    # Kept consistent with the generated deltas so removals always
    # target a live link and never collide with an earlier removal.
    i0, j0, k0 = hin.tensor.coords
    entry_set = set(zip(i0.tolist(), j0.tolist(), k0.tolist()))
    pair_set: set[tuple[int, int, int]] = set()
    for i, j, k in entry_set:
        a, b = (i, j) if i <= j else (j, i)
        if a == b or (a, b, k) in entry_set and (b, a, k) in entry_set:
            pair_set.add((a, b, k))
    removable = sorted(pair_set)

    def pop_pair(index: int) -> tuple[int, int, int]:
        pair = removable[index]
        removable[index] = removable[-1]
        removable.pop()
        pair_set.discard(pair)
        return pair

    def random_feature_row() -> np.ndarray:
        # Resample a bag-of-words-like row at the scale of the existing
        # features so similarity patterns shift without leaving the
        # generator's regime.
        template = features[int(rng.integers(features.shape[0]))]
        noise = rng.random(d) * (float(np.abs(template).mean()) + 1.0) * 0.5
        return np.abs(template) * rng.random(d) + noise

    log = DeltaLog()
    n_new_nodes = 0
    emitted = 0
    next_commit = batch_size
    while emitted < n_deltas:
        op = ops[int(rng.choice(len(ops), p=probs))]
        if op == "remove_link" and not removable:
            op = "add_link"
        if op == "add_node" and emitted + 2 > n_deltas:
            op = "set_label"

        if op == "add_link":
            a, b = rng.choice(len(node_names), size=2, replace=False)
            a, b = int(min(a, b)), int(max(a, b))
            k = int(rng.integers(len(relation_names)))
            log.append(
                GraphDelta.add_link(node_names[a], node_names[b], relation_names[k])
            )
            if (a, b, k) not in pair_set:
                pair_set.add((a, b, k))
                removable.append((a, b, k))
            emitted += 1
        elif op == "remove_link":
            a, b, k = pop_pair(int(rng.integers(len(removable))))
            log.append(
                GraphDelta.remove_link(node_names[a], node_names[b], relation_names[k])
            )
            emitted += 1
        elif op == "set_label":
            idx = int(rng.integers(len(node_names)))
            if hin.multilabel:
                count = int(rng.integers(1, min(3, len(label_names)) + 1))
                chosen = rng.choice(len(label_names), size=count, replace=False)
                labels = [label_names[int(c)] for c in chosen]
            else:
                labels = [label_names[int(rng.integers(len(label_names)))]]
            log.append(GraphDelta.set_label(node_names[idx], labels))
            emitted += 1
        elif op == "update_features":
            idx = int(rng.integers(len(node_names)))
            log.append(GraphDelta.update_features(node_names[idx], random_feature_row()))
            emitted += 1
        else:  # add_node, immediately wired in with one undirected link
            name = f"stream_node_{n_new_nodes}"
            n_new_nodes += 1
            while name in hin.node_names:
                name = f"stream_node_{n_new_nodes}"
                n_new_nodes += 1
            labels = (
                [label_names[int(rng.integers(len(label_names)))]]
                if rng.random() < 0.5
                else []
            )
            log.append(
                GraphDelta.add_node(name, features=random_feature_row(), labels=labels)
            )
            neighbour = int(rng.integers(len(node_names)))
            k = int(rng.integers(len(relation_names)))
            log.append(
                GraphDelta.add_link(name, node_names[neighbour], relation_names[k])
            )
            new_idx = len(node_names)
            node_names.append(name)
            pair = (neighbour, new_idx, k)
            pair_set.add(pair)
            removable.append(pair)
            emitted += 2

        if emitted >= next_commit:
            # An add_node pair can step over a boundary: commit there
            # anyway, so no batch grows past batch_size + 1.
            log.commit()
            next_commit = (emitted // batch_size + 1) * batch_size
    log.commit()
    return log
