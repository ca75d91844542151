"""Graph deltas: the unit of change for an evolving HIN.

A :class:`GraphDelta` is one edit — add a node, add or remove a link,
set a node's labels, or replace its feature vector — expressed by
*name* (like :class:`~repro.hin.builder.HINBuilder`) so deltas stay
meaningful across index growth.  A :class:`DeltaBatch` is an ordered,
composable sequence of deltas applied atomically.

Two consumers share one resolution pass (:func:`resolve_batch`):

* :func:`apply_batch` materialises a fresh immutable
  :class:`~repro.hin.graph.HIN` — the reference semantics;
* :class:`repro.stream.operators.IncrementalOperators` materialises
  the same post-batch HIN, rebuilds ``O`` / ``R`` from its tensor, and
  reads the resolved edit list to decide what else to refresh — so the
  incremental operators and the reference semantics share a single
  source of truth.

Link semantics follow the builder: an undirected link is two converse
tensor entries (one entry when it is a self-loop), the entry written for
``source -> target`` is ``A[target, source, k]``, and repeated adds of
the same entry accumulate weight.  ``remove_link`` deletes the entry
*entirely* (whatever weight it accumulated); removing an absent link is
a validation error.  New relation types cannot be introduced by a delta
— the relation space is part of the schema, fixed by the seed HIN.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError, ValidationError
from repro.hin.graph import HIN
from repro.tensor.sptensor import SparseTensor3

#: The edit operations a delta can carry.
DELTA_OPS = ("add_node", "add_link", "remove_link", "set_label", "update_features")


@dataclass(frozen=True)
class GraphDelta:
    """One named edit to an evolving HIN.

    Use the classmethod constructors (:meth:`add_node`, :meth:`add_link`,
    :meth:`remove_link`, :meth:`set_label`, :meth:`update_features`)
    rather than the raw dataclass: they populate exactly the fields the
    operation needs and validate the rest.  Name-level validation (does
    the node exist, is the relation known) happens against a concrete
    HIN in :func:`resolve_batch`.
    """

    op: str
    name: str | None = None
    source: str | None = None
    target: str | None = None
    relation: str | None = None
    weight: float = 1.0
    directed: bool = False
    labels: tuple[str, ...] = ()
    features: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.op not in DELTA_OPS:
            raise ValidationError(
                f"delta op must be one of {DELTA_OPS}, got {self.op!r}"
            )
        if self.op in ("add_link", "remove_link"):
            if self.source is None or self.target is None or self.relation is None:
                raise ValidationError(
                    f"{self.op} deltas need source, target and relation"
                )
        elif self.name is None:
            raise ValidationError(f"{self.op} deltas need a node name")
        if self.op == "add_link":
            if not np.isfinite(self.weight) or self.weight <= 0:
                raise ValidationError(
                    f"link weight must be positive and finite, got {self.weight}"
                )
        if self.op in ("add_node", "update_features") and self.features is None:
            raise ValidationError(f"{self.op} deltas need a feature vector")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def add_node(cls, name, *, features, labels: Sequence[str] = ()) -> "GraphDelta":
        """A new node with its feature vector and zero or more labels."""
        return cls(
            op="add_node",
            name=str(name),
            features=_as_feature_tuple(features, str(name)),
            labels=tuple(str(c) for c in labels),
        )

    @classmethod
    def add_link(
        cls, source, target, relation, *, weight: float = 1.0, directed: bool = False
    ) -> "GraphDelta":
        """A new link ``source -> target`` (both directions unless directed)."""
        return cls(
            op="add_link",
            source=str(source),
            target=str(target),
            relation=str(relation),
            weight=float(weight),
            directed=bool(directed),
        )

    @classmethod
    def remove_link(
        cls, source, target, relation, *, directed: bool = False
    ) -> "GraphDelta":
        """Delete the link ``source -> target`` (and its converse unless directed)."""
        return cls(
            op="remove_link",
            source=str(source),
            target=str(target),
            relation=str(relation),
            directed=bool(directed),
        )

    @classmethod
    def set_label(cls, name, labels: Sequence[str]) -> "GraphDelta":
        """Replace a node's label set (empty sequence clears it)."""
        return cls(op="set_label", name=str(name), labels=tuple(str(c) for c in labels))

    @classmethod
    def update_features(cls, name, features) -> "GraphDelta":
        """Replace a node's feature vector."""
        return cls(
            op="update_features",
            name=str(name),
            features=_as_feature_tuple(features, str(name)),
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serialisable dict with only the fields the op uses."""
        payload: dict = {"op": self.op}
        if self.name is not None:
            payload["name"] = self.name
        if self.op in ("add_link", "remove_link"):
            payload["source"] = self.source
            payload["target"] = self.target
            payload["relation"] = self.relation
            if self.directed:
                payload["directed"] = True
            if self.op == "add_link" and self.weight != 1.0:
                payload["weight"] = self.weight
        if self.op in ("add_node", "set_label") and (self.labels or self.op == "set_label"):
            payload["labels"] = list(self.labels)
        if self.features is not None:
            payload["features"] = list(self.features)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "GraphDelta":
        """Rebuild a delta from :meth:`to_dict` output."""
        if not isinstance(payload, dict):
            raise ValidationError(f"delta payload must be a dict, got {type(payload).__name__}")
        op = payload.get("op")
        if op not in DELTA_OPS:
            raise ValidationError(f"delta op must be one of {DELTA_OPS}, got {op!r}")
        kwargs: dict = {"op": op}
        for key in ("name", "source", "target", "relation"):
            if payload.get(key) is not None:
                kwargs[key] = str(payload[key])
        if "weight" in payload:
            kwargs["weight"] = float(payload["weight"])
        if "directed" in payload:
            kwargs["directed"] = bool(payload["directed"])
        if "labels" in payload:
            kwargs["labels"] = tuple(str(c) for c in payload["labels"])
        if payload.get("features") is not None:
            kwargs["features"] = tuple(float(v) for v in payload["features"])
        return cls(**kwargs)


def _as_feature_tuple(features, name: str) -> tuple[float, ...]:
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 1:
        raise ShapeError(
            f"features for node {name!r} must be 1-D, got shape {feats.shape}"
        )
    if feats.size and not np.all(np.isfinite(feats)):
        raise ValidationError(f"features for node {name!r} contain non-finite values")
    return tuple(float(v) for v in feats)


class DeltaBatch:
    """An ordered, immutable sequence of deltas applied atomically.

    Batches compose with ``+`` (concatenation preserves order, which
    matters: weight accumulation and remove-then-re-add sequences are
    order-sensitive).
    """

    __slots__ = ("_deltas",)

    def __init__(self, deltas: Iterable[GraphDelta] = ()):
        deltas = tuple(deltas)
        for delta in deltas:
            if not isinstance(delta, GraphDelta):
                raise ValidationError(
                    f"DeltaBatch entries must be GraphDelta, got {type(delta).__name__}"
                )
        self._deltas = deltas

    def __len__(self) -> int:
        return len(self._deltas)

    def __iter__(self):
        return iter(self._deltas)

    def __getitem__(self, index):
        return self._deltas[index]

    def __add__(self, other) -> "DeltaBatch":
        if isinstance(other, DeltaBatch):
            return DeltaBatch(self._deltas + other._deltas)
        return DeltaBatch(self._deltas + tuple(as_batch(other)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeltaBatch):
            return NotImplemented
        return self._deltas == other._deltas

    def __repr__(self) -> str:
        counts = ", ".join(f"{op}={n}" for op, n in self.op_counts().items())
        return f"DeltaBatch({len(self._deltas)} deltas: {counts or 'empty'})"

    def op_counts(self) -> dict[str, int]:
        """Histogram of operations, in :data:`DELTA_OPS` order."""
        counts = {op: 0 for op in DELTA_OPS}
        for delta in self._deltas:
            counts[delta.op] += 1
        return {op: n for op, n in counts.items() if n}


def as_batch(deltas) -> DeltaBatch:
    """Coerce a batch / delta / iterable of deltas into a :class:`DeltaBatch`."""
    if isinstance(deltas, DeltaBatch):
        return deltas
    if isinstance(deltas, GraphDelta):
        return DeltaBatch([deltas])
    return DeltaBatch(deltas)


@dataclass
class ResolvedBatch:
    """A batch resolved against a concrete HIN: index-level edit lists.

    Produced by :func:`resolve_batch`, consumed by
    :func:`materialize_batch` (build the new HIN, for both
    :func:`apply_batch` and ``IncrementalOperators.apply``) and by
    ``IncrementalOperators.apply`` (which operators to refresh, and the
    touched counts it reports).  The tensor edits in ``link_ops`` are
    *entries* — undirected links already expanded into their converse
    pair, self-loops stored once — in delta order.
    """

    n_old: int
    n_new: int
    #: ``(name, features, label_indices)`` per appended node, in order.
    new_nodes: list[tuple[str, np.ndarray, frozenset]] = field(default_factory=list)
    #: ``("add" | "remove", i, j, k, weight)`` tensor-entry edits in delta order.
    link_ops: list[tuple[str, int, int, int, float]] = field(default_factory=list)
    #: ``(node_index, label_indices)`` assignments in delta order.
    label_ops: list[tuple[int, frozenset]] = field(default_factory=list)
    #: ``(node_index, features)`` replacements in delta order.
    feature_ops: list[tuple[int, np.ndarray]] = field(default_factory=list)
    #: Distinct pre-existing entries deleted by the batch.
    removed_existing: list[tuple[int, int, int]] = field(default_factory=list)
    #: Surviving appended entries ``(i, j, k, weight)`` in add order.
    added_entries: list[tuple[int, int, int, float]] = field(default_factory=list)

    @property
    def touches_links(self) -> bool:
        """Whether the batch edits any tensor entry (O/R must be rebuilt)."""
        return bool(self.link_ops)

    @property
    def touches_features(self) -> bool:
        """Whether the batch changes feature rows (W must be patched)."""
        return bool(self.feature_ops) or bool(self.new_nodes)

    @property
    def touches_labels(self) -> bool:
        """Whether the batch changes any node's label assignment."""
        return bool(self.label_ops) or any(
            labels for _, _, labels in self.new_nodes
        )


def resolve_batch(hin: HIN, deltas) -> ResolvedBatch:
    """Validate a batch against ``hin`` and lower it to index-level edits.

    Raises :class:`ValidationError` / :class:`ShapeError` on unknown
    node, relation or label names, duplicate node additions, feature
    length mismatches, removal of absent links, and multi-label
    assignments on a single-label HIN.  Validation sees the batch
    *sequentially*: a link may reference a node added earlier in the
    same batch, and removing a link twice is an error unless it was
    re-added in between.
    """
    if not isinstance(hin, HIN):
        raise ValidationError(f"expected a HIN, got {type(hin).__name__}")
    batch = as_batch(deltas)
    n_old = hin.n_nodes
    d = hin.n_features
    node_index = hin.node_positions
    # Nodes added by this batch, indexed from ``n_old`` on.
    added_index: dict[str, int] = {}
    label_index = {name: idx for idx, name in enumerate(hin.label_names)}
    relation_index = {name: idx for idx, name in enumerate(hin.relation_names)}

    existing_flat = None  # the entries' flat ids, built on the first removal

    def entry_exists(i: int, j: int, k: int) -> bool:
        nonlocal existing_flat
        if i >= n_old or j >= n_old:
            return False
        if existing_flat is None:
            i0, j0, k0 = hin.tensor.coords
            existing_flat = (k0 * n_old + j0) * n_old + i0  # already sorted
        flat = (k * n_old + j) * n_old + i
        pos = np.searchsorted(existing_flat, flat)
        return bool(pos < existing_flat.size and existing_flat[pos] == flat)

    resolved = ResolvedBatch(n_old=n_old, n_new=n_old)
    removed: set[tuple[int, int, int]] = set()
    pending: list[tuple[int, int, int, float] | None] = []
    pending_at: dict[tuple[int, int, int], list[int]] = {}

    def resolve_node(name: str, op: str) -> int:
        idx = node_index.get(name, added_index.get(name))
        if idx is None:
            raise ValidationError(f"unknown node {name!r} in {op} delta")
        return idx

    def resolve_labels(labels, name: str):
        indices = set()
        for label in labels:
            if label not in label_index:
                raise ValidationError(
                    f"unknown label {label!r} for node {name!r}; "
                    f"known labels: {list(hin.label_names)}"
                )
            indices.add(label_index[label])
        if not hin.multilabel and len(indices) > 1:
            raise ValidationError(
                f"node {name!r} assigned {len(indices)} labels in a single-label HIN"
            )
        return frozenset(indices)

    def check_features(features, name: str) -> np.ndarray:
        feats = np.asarray(features, dtype=float)
        if feats.shape != (d,):
            raise ShapeError(
                f"node {name!r} has {feats.size} features, the HIN has {d}"
            )
        return feats

    for delta in batch:
        if delta.op == "add_node":
            if delta.name in node_index or delta.name in added_index:
                raise ValidationError(f"duplicate node name: {delta.name!r}")
            feats = check_features(delta.features, delta.name)
            labels = resolve_labels(delta.labels, delta.name)
            added_index[delta.name] = n_old + len(added_index)
            resolved.new_nodes.append((delta.name, feats, labels))
        elif delta.op in ("add_link", "remove_link"):
            src = resolve_node(delta.source, delta.op)
            dst = resolve_node(delta.target, delta.op)
            if delta.relation not in relation_index:
                raise ValidationError(
                    f"unknown relation {delta.relation!r} in {delta.op} delta; "
                    "deltas cannot introduce new relation types "
                    f"(known: {list(hin.relation_names)})"
                )
            k = relation_index[delta.relation]
            entries = [(dst, src, k)]
            if not delta.directed and src != dst:
                entries.append((src, dst, k))
            if delta.op == "add_link":
                for key in entries:
                    position = len(pending)
                    pending.append((*key, float(delta.weight)))
                    pending_at.setdefault(key, []).append(position)
                    resolved.link_ops.append(("add", *key, float(delta.weight)))
            else:
                for key in entries:
                    had_entry = False
                    positions = pending_at.pop(key, [])
                    for position in positions:
                        pending[position] = None
                        had_entry = True
                    if key not in removed and entry_exists(*key):
                        removed.add(key)
                        resolved.removed_existing.append(key)
                        had_entry = True
                    if not had_entry:
                        raise ValidationError(
                            f"cannot remove absent link "
                            f"{delta.source!r} -> {delta.target!r} "
                            f"({delta.relation!r})"
                        )
                    resolved.link_ops.append(("remove", *key, 0.0))
        elif delta.op == "set_label":
            idx = resolve_node(delta.name, delta.op)
            if idx < n_old:
                resolved.label_ops.append(
                    (idx, resolve_labels(delta.labels, delta.name))
                )
            else:
                # Labeling a node added earlier in this batch: fold the
                # assignment into the node record.
                name, feats, _ = resolved.new_nodes[idx - n_old]
                resolved.new_nodes[idx - n_old] = (
                    name,
                    feats,
                    resolve_labels(delta.labels, delta.name),
                )
        elif delta.op == "update_features":
            idx = resolve_node(delta.name, delta.op)
            feats = check_features(delta.features, delta.name)
            if idx < n_old:
                resolved.feature_ops.append((idx, feats))
            else:
                name, _, labels = resolved.new_nodes[idx - n_old]
                resolved.new_nodes[idx - n_old] = (name, feats, labels)

    resolved.n_new = n_old + len(resolved.new_nodes)
    resolved.added_entries = [entry for entry in pending if entry is not None]
    return resolved


def apply_batch(hin: HIN, deltas) -> HIN:
    """Apply a batch to ``hin`` and return the mutated graph as a new HIN.

    The reference semantics of the streaming layer: the incremental
    operators are pinned (bit-or-near-equal) against
    ``build_operators(apply_batch(hin, batch))``.
    """
    return materialize_batch(hin, resolve_batch(hin, deltas))


def materialize_batch(hin: HIN, resolved: ResolvedBatch) -> HIN:
    """Build the post-batch HIN from a :class:`ResolvedBatch`.

    The result is a :meth:`HIN.derive` of ``hin``: it shares the names,
    the name -> index mapping (copied only to append added nodes) and
    every one of tensor, features and label matrix the batch leaves as
    it was; only the written feature rows are checked again.
    """
    n_old, n_new = resolved.n_old, resolved.n_new
    d = hin.n_features
    if not resolved.link_ops and n_new == n_old:
        tensor = None
    else:
        tensor = _edited_tensor(hin.tensor, resolved)
    # Only the rows the batch writes need checking; the rest were
    # validated when ``hin`` was built.
    feature_rows = [idx for idx, _ in resolved.feature_ops] + list(range(n_old, n_new))
    if not resolved.touches_features:
        features = None
    elif sp.issparse(hin.features):
        # Row r is row source[r] of [old; added; written rows]; last write wins.
        written = [f for _, f, _ in resolved.new_nodes]
        written += [f for _, f in resolved.feature_ops]
        source = np.arange(n_new)
        for offset, (idx, _) in enumerate(resolved.feature_ops):
            source[idx] = n_new + offset
        block = sp.csr_matrix(np.reshape(written, (-1, d)))
        features = sp.vstack([hin.features, block], format="csr", dtype=float)[source]
    else:
        base = np.asarray(hin.features, dtype=float)
        new_rows = [feats[None, :] for _, feats, _ in resolved.new_nodes]
        features = np.vstack([base] + new_rows) if new_rows else base.copy()
        for idx, feats in resolved.feature_ops:
            features[idx] = feats

    if resolved.touches_labels or resolved.new_nodes:
        label_matrix = np.zeros((n_new, hin.n_labels), dtype=bool)
        label_matrix[:n_old] = hin.label_matrix
        for offset, (_, _, labels) in enumerate(resolved.new_nodes):
            for c in labels:
                label_matrix[n_old + offset, c] = True
        for idx, labels in resolved.label_ops:
            label_matrix[idx] = False
            for c in labels:
                label_matrix[idx, c] = True
    else:
        label_matrix = None

    return hin.derive(
        tensor=tensor,
        features=features,
        feature_rows=feature_rows,
        label_matrix=label_matrix,
        new_node_names=[name for name, _, _ in resolved.new_nodes],
    )


def _edited_tensor(tensor0: SparseTensor3, resolved: ResolvedBatch) -> SparseTensor3:
    """``tensor0`` without the batch's removed entries, plus its added ones."""
    n_old, n_new = resolved.n_old, resolved.n_new
    i0, j0, k0 = tensor0.coords
    values0 = tensor0.values
    if resolved.removed_existing:
        removal_flat = np.array(
            [(k * n_old + j) * n_old + i for i, j, k in resolved.removed_existing],
            dtype=np.int64,
        )
        keep = ~np.isin((k0 * n_old + j0) * n_old + i0, removal_flat)
    else:
        keep = slice(None)
    if resolved.added_entries:
        add_i, add_j, add_k, add_w = (
            np.asarray(col) for col in zip(*resolved.added_entries)
        )
    else:
        add_i = add_j = add_k = np.empty(0, dtype=np.int64)
        add_w = np.empty(0, dtype=float)
    return SparseTensor3(
        np.concatenate([i0[keep], add_i]),
        np.concatenate([j0[keep], add_j]),
        np.concatenate([k0[keep], add_k]),
        np.concatenate([values0[keep], add_w]),
        shape=(n_new, n_new, tensor0.n_relations),
    )
