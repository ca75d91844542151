"""Incremental construction of :class:`~repro.hin.graph.HIN` objects.

The builder accepts nodes and links by *name*, accumulates them, and emits
an immutable :class:`HIN` with a consistent index space.  All the dataset
generators and the file loaders go through it, so index-bookkeeping bugs
live (and are tested) in exactly one place.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ShapeError, ValidationError
from repro.hin.graph import HIN
from repro.tensor.sptensor import SparseTensor3


class HINBuilder:
    """Accumulate named nodes / typed links and build a :class:`HIN`.

    Parameters
    ----------
    label_names:
        The full class-label space, fixed up front.
    multilabel:
        Whether nodes may carry several labels.

    Examples
    --------
    >>> builder = HINBuilder(label_names=["DM", "CV"])
    >>> builder.add_node("p1", features=[1.0, 0.0], labels=["DM"])
    >>> builder.add_node("p2", features=[0.0, 1.0], labels=["CV"])
    >>> builder.add_link("p1", "p2", "co-author")
    >>> hin = builder.build()
    >>> hin.n_nodes, hin.n_relations
    (2, 1)
    """

    def __init__(self, label_names: Sequence[str], *, multilabel: bool = False):
        label_names = [str(c) for c in label_names]
        if not label_names:
            raise ValidationError("label_names must be non-empty")
        if len(set(label_names)) != len(label_names):
            raise ValidationError("label names must be distinct")
        self._label_names = label_names
        self._label_index = {c: idx for idx, c in enumerate(label_names)}
        self._multilabel = bool(multilabel)
        self._node_names: list[str] = []
        self._node_index: dict[str, int] = {}
        self._features: list[np.ndarray] = []
        self._labels: list[set[int]] = []
        self._relation_names: list[str] = []
        self._relation_index: dict[str, int] = {}
        self._links: list[tuple[int, int, int, float]] = []
        self._n_features: int | None = None

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------
    def add_node(self, name: str, *, features, labels: Sequence[str] = ()) -> int:
        """Register a node and return its index.

        Parameters
        ----------
        name:
            Unique node name.
        features:
            The node's feature vector; all nodes must share one length.
        labels:
            Zero or more class names from the builder's label space.
        """
        name = str(name)
        if name in self._node_index:
            raise ValidationError(f"duplicate node name: {name!r}")
        feats = np.asarray(features, dtype=float)
        if feats.ndim != 1:
            raise ShapeError(
                f"features for node {name!r} must be 1-D, got shape {feats.shape}"
            )
        if self._n_features is None:
            self._n_features = feats.size
        elif feats.size != self._n_features:
            raise ShapeError(
                f"node {name!r} has {feats.size} features, expected {self._n_features}"
            )
        label_set = set()
        for label in labels:
            if label not in self._label_index:
                raise ValidationError(
                    f"unknown label {label!r} for node {name!r}; "
                    f"known labels: {self._label_names}"
                )
            label_set.add(self._label_index[label])
        if not self._multilabel and len(label_set) > 1:
            raise ValidationError(
                f"node {name!r} has {len(label_set)} labels in a single-label HIN"
            )
        idx = len(self._node_names)
        self._node_names.append(name)
        self._node_index[name] = idx
        self._features.append(feats)
        self._labels.append(label_set)
        return idx

    # ------------------------------------------------------------------
    # Relations / links
    # ------------------------------------------------------------------
    def add_relation(self, name: str) -> int:
        """Register a link type (idempotent) and return its index."""
        name = str(name)
        if name not in self._relation_index:
            self._relation_index[name] = len(self._relation_names)
            self._relation_names.append(name)
        return self._relation_index[name]

    def add_link(
        self,
        source: str,
        target: str,
        relation: str,
        *,
        weight: float = 1.0,
        directed: bool = False,
    ) -> None:
        """Add a link ``source -> target`` of the given relation type.

        Undirected links (the default — co-author, same-conference, shared
        tag, ...) are stored as two converse directed links, following the
        paper's convention for the ACM dataset.  The tensor entry written
        for a directed link ``source -> target`` is ``A[target, source, k]``
        so that the Eq. 1 random walk steps *along* the link.

        An undirected *self-loop* (``source == target``) is its own
        converse, so it is stored once — appending both orientations
        would silently double its weight in ``A``.
        """
        if weight <= 0 or not np.isfinite(weight):
            raise ValidationError(f"link weight must be positive, got {weight}")
        try:
            src = self._node_index[str(source)]
        except KeyError:
            raise ValidationError(f"unknown source node: {source!r}") from None
        try:
            dst = self._node_index[str(target)]
        except KeyError:
            raise ValidationError(f"unknown target node: {target!r}") from None
        k = self.add_relation(relation)
        self._links.append((dst, src, k, float(weight)))
        if not directed and src != dst:
            self._links.append((src, dst, k, float(weight)))

    def link_group(self, members: Sequence[str], relation: str, *, weight: float = 1.0):
        """Pairwise-link every pair in ``members`` through ``relation``.

        This is how "two authors published at the same conference" /
        "two movies share a director" relations are materialised.
        Repeated names in ``members`` are ignored (first occurrence
        wins), so each distinct pair is linked exactly once.
        """
        members = list(dict.fromkeys(str(v) for v in members))
        self.add_relation(relation)
        for a_pos, a in enumerate(members):
            for b in members[a_pos + 1:]:
                if a != b:
                    self.add_link(a, b, relation, weight=weight)

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes added so far."""
        return len(self._node_names)

    @property
    def n_relations(self) -> int:
        """Number of relation types registered so far."""
        return len(self._relation_names)

    def build(self, *, metadata: dict | None = None) -> HIN:
        """Emit the immutable :class:`HIN`.

        Raises
        ------
        ValidationError
            If no nodes or no relations were added.
        """
        n = len(self._node_names)
        if n == 0:
            raise ValidationError("cannot build a HIN with no nodes")
        m = len(self._relation_names)
        if m == 0:
            raise ValidationError("cannot build a HIN with no relations")

        if self._links:
            i, j, k, w = (np.asarray(col) for col in zip(*self._links))
        else:
            i = j = k = np.empty(0, dtype=np.int64)
            w = np.empty(0, dtype=float)
        tensor = SparseTensor3(i, j, k, w, shape=(n, n, m))

        features = np.vstack(self._features) if self._features else np.zeros((n, 0))
        label_matrix = np.zeros((n, len(self._label_names)), dtype=bool)
        for idx, label_set in enumerate(self._labels):
            for c in label_set:
                label_matrix[idx, c] = True

        return HIN(
            tensor,
            self._relation_names,
            features,
            label_matrix,
            self._label_names,
            node_names=self._node_names,
            multilabel=self._multilabel,
            metadata=metadata,
        )
