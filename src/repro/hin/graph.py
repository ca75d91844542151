"""The :class:`HIN` container: adjacency tensor + features + labels + names.

The paper's problem setting (section 3): ``n`` nodes of the target type,
``m`` link types among them, each node carries a feature vector
``f_i in R^d`` and is associated with at least one of ``q`` class labels.
Labels are known for a subset of nodes (the training set); the task is to
predict the rest and rank the link types per class.

Labels are stored canonically as an ``(n, q)`` boolean matrix so the same
container serves single-label (DBLP, Movies, NUS) and multi-label (ACM)
experiments.  A row of all ``False`` means *unknown*.
"""

from __future__ import annotations

import copy
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError, ValidationError
from repro.tensor.sptensor import SparseTensor3


class HIN:
    """An attributed heterogeneous information network over one node type.

    Parameters
    ----------
    tensor:
        The ``(n, n, m)`` adjacency tensor; ``tensor[i, j, k]`` is the
        weight of the link ``j -> i`` through relation ``k``.
    relation_names:
        ``m`` distinct names for the link types.
    features:
        ``(n, d)`` dense array or scipy sparse matrix of node features.
    label_matrix:
        ``(n, q)`` boolean matrix; ``label_matrix[i, c]`` marks node ``i``
        as belonging to class ``c``.  All-``False`` rows are unlabeled.
    label_names:
        ``q`` distinct class names.
    node_names:
        Optional ``n`` distinct node names; defaults to ``"node_<idx>"``.
    multilabel:
        Whether nodes may carry several labels (ACM).  When ``False``,
        rows of ``label_matrix`` must contain at most one ``True``.
    metadata:
        Free-form dict for generator ground truth (e.g. the conference ->
        area map behind Table 2).
    """

    def __init__(
        self,
        tensor: SparseTensor3,
        relation_names: Sequence[str],
        features,
        label_matrix,
        label_names: Sequence[str],
        *,
        node_names: Sequence[str] | None = None,
        multilabel: bool = False,
        metadata: dict | None = None,
    ):
        tensor = _checked_tensor(tensor)
        n, _, m = tensor.shape
        relation_names = _name_tuple(
            relation_names, m, "relation", f" (tensor has {m} relations)"
        )
        features = _checked_features(features)
        if features.shape[0] != n:
            raise ShapeError(
                f"features has {features.shape[0]} rows, expected {n} (one per node)"
            )
        label_matrix = _checked_labels(label_matrix, n, multilabel)
        q = label_matrix.shape[1]
        label_names = _name_tuple(
            label_names, q, "label", f" (label_matrix has {q} columns)"
        )
        if node_names is None:
            node_names = tuple(f"node_{idx}" for idx in range(n))
        else:
            node_names = _name_tuple(node_names, n, "node")

        self._tensor = tensor
        self._relation_names = relation_names
        self._features = features
        self._label_matrix = label_matrix
        self._label_names = label_names
        self._node_names = node_names
        self._multilabel = bool(multilabel)
        self.metadata = dict(metadata or {})
        self._node_index = {name: idx for idx, name in enumerate(node_names)}
        self._relation_index = {name: idx for idx, name in enumerate(relation_names)}

    # ------------------------------------------------------------------
    # Shape properties
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._tensor.n_nodes

    @property
    def n_relations(self) -> int:
        """Number of link types ``m``."""
        return self._tensor.n_relations

    @property
    def n_labels(self) -> int:
        """Number of classes ``q``."""
        return len(self._label_names)

    @property
    def n_features(self) -> int:
        """Feature dimensionality ``d``."""
        return self._features.shape[1]

    @property
    def multilabel(self) -> bool:
        """Whether nodes may carry several labels."""
        return self._multilabel

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    @property
    def tensor(self) -> SparseTensor3:
        """The adjacency tensor ``A``."""
        return self._tensor

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Names of the ``m`` link types."""
        return self._relation_names

    @property
    def label_names(self) -> tuple[str, ...]:
        """Names of the ``q`` classes."""
        return self._label_names

    @property
    def node_names(self) -> tuple[str, ...]:
        """Names of the ``n`` nodes."""
        return self._node_names

    @property
    def node_positions(self) -> Mapping[str, int]:
        """Read-only ``node name -> index`` mapping (shared by derived HINs)."""
        return MappingProxyType(self._node_index)

    @property
    def features(self):
        """The ``(n, d)`` feature matrix (dense ndarray or CSR)."""
        return self._features

    @property
    def label_matrix(self) -> np.ndarray:
        """The ``(n, q)`` boolean label matrix (read-only)."""
        return self._label_matrix

    def features_dense(self) -> np.ndarray:
        """Return the feature matrix as a dense array."""
        if sp.issparse(self._features):
            return self._features.toarray()
        return np.asarray(self._features)

    # ------------------------------------------------------------------
    # Label views
    # ------------------------------------------------------------------
    @property
    def labeled_mask(self) -> np.ndarray:
        """Boolean mask of nodes carrying at least one label."""
        return self._label_matrix.any(axis=1)

    @property
    def y(self) -> np.ndarray:
        """Single-label view: class index per node, ``-1`` for unlabeled.

        Raises
        ------
        ValidationError
            If the HIN is multi-label.
        """
        if self._multilabel:
            raise ValidationError(
                "y is only defined for single-label HINs; use label_matrix"
            )
        result = np.full(self.n_nodes, -1, dtype=np.int64)
        rows, cols = np.nonzero(self._label_matrix)
        result[rows] = cols
        return result

    def node_index(self, name: str) -> int:
        """Resolve a node name to its index."""
        try:
            return self._node_index[name]
        except KeyError:
            raise ValidationError(f"unknown node name: {name!r}") from None

    def relation_index(self, name: str) -> int:
        """Resolve a relation name to its index."""
        try:
            return self._relation_index[name]
        except KeyError:
            raise ValidationError(f"unknown relation name: {name!r}") from None

    def label_index(self, name: str) -> int:
        """Resolve a class name to its index."""
        try:
            return self._label_names.index(name)
        except ValueError:
            raise ValidationError(f"unknown label name: {name!r}") from None

    # ------------------------------------------------------------------
    # Derived HINs
    # ------------------------------------------------------------------
    def derive(
        self,
        *,
        tensor: SparseTensor3 | None = None,
        relation_names: Sequence[str] | None = None,
        features=None,
        feature_rows=None,
        label_matrix=None,
        new_node_names: Sequence[str] = (),
    ) -> "HIN":
        """Return a HIN that shares this one's validated state but for what is passed.

        The one derivation path behind :meth:`with_labels`,
        :meth:`masked`, :meth:`with_relations`, meta-path composition and
        the streaming layer's post-batch graph.  Whatever is not passed
        is carried over by reference, neither copied nor checked again:
        the tensor, the features, the node / relation / label name
        tuples and the name -> index mappings.  Only what changes is
        checked:

        * ``label_matrix``: shape ``(n, q)`` and the single-label rule;
          stored as a read-only copy.
        * ``tensor``: a :class:`SparseTensor3` over the ``n`` nodes.
          It may change the number of relations only together with
          ``relation_names``, which must be that many distinct names.
        * ``features``: 2-D with one row per node.  Only the rows listed
          in ``feature_rows`` are checked finite (all rows when
          ``None``), so a caller that patches a few rows of validated
          features pays for those rows.
        * ``new_node_names``: appended after this HIN's nodes, distinct
          from them and from each other, in a copied name -> index
          mapping (this HIN's is never mutated).  Adding nodes takes a
          tensor, features and a label matrix over the grown node set.

        ``metadata`` is the derived HIN's own shallow copy.
        """
        child = copy.copy(self)
        child.metadata = dict(self.metadata)
        n = self.n_nodes
        if new_node_names:
            index = dict(self._node_index)
            added = tuple(str(name) for name in new_node_names)
            for name in added:
                if name in index:
                    raise ValidationError(f"duplicate node name: {name!r}")
                index[name] = len(index)
            child._node_names = self._node_names + added
            child._node_index = index
            n += len(added)
        if tensor is not None:
            child._tensor = _checked_tensor(tensor)
        if relation_names is not None:
            child._relation_names = _name_tuple(
                relation_names,
                child._tensor.n_relations,
                "relation",
                f" (tensor has {child._tensor.n_relations} relations)",
            )
            child._relation_index = {
                name: idx for idx, name in enumerate(child._relation_names)
            }
        if features is not None:
            child._features = _checked_features(features, feature_rows)
        if label_matrix is not None:
            label_matrix = _checked_labels(label_matrix, n, self._multilabel)
            if label_matrix.shape[1] != self.n_labels:
                raise ShapeError(
                    f"label_matrix must be (n, q) = ({n}, {self.n_labels}), "
                    f"got {label_matrix.shape}"
                )
            child._label_matrix = label_matrix
        if child._tensor.n_relations != len(child._relation_names):
            raise ShapeError(
                f"tensor has {child._tensor.n_relations} relations but the HIN "
                f"has {len(child._relation_names)} relation names; pass "
                "relation_names with the tensor"
            )
        for what, rows in (
            ("tensor", child._tensor.n_nodes),
            ("features", child._features.shape[0]),
            ("label_matrix", child._label_matrix.shape[0]),
        ):
            if rows != n:
                raise ShapeError(f"{what} has {rows} rows, expected {n} (one per node)")
        return child

    def with_labels(self, label_matrix: np.ndarray) -> "HIN":
        """Return a HIN with a different ``(n, q)`` label matrix.

        Used by the experiment harness to mask test labels.  The view
        shares the tensor, features, names and name -> index mappings
        with this HIN by reference (see :meth:`derive`); only the new
        matrix is checked (shape, the single-label rule) and stored as a
        read-only copy, so a view costs about its label matrix.
        """
        return self.derive(label_matrix=label_matrix)

    def masked(self, train_mask: np.ndarray) -> "HIN":
        """Return a view keeping labels only where ``train_mask`` is True."""
        train_mask = np.asarray(train_mask, dtype=bool)
        if train_mask.shape != (self.n_nodes,):
            raise ShapeError(
                f"train_mask must have shape ({self.n_nodes},), got {train_mask.shape}"
            )
        return self.with_labels(
            np.logical_and(self._label_matrix, train_mask[:, None], order="C")
        )

    def with_relations(self, relation_indices: Sequence[int], names=None) -> "HIN":
        """Return a copy restricted to a subset of link types.

        This is the *link selection* operation behind section 6.3
        (Tagset1 vs Tagset2 on NUS).
        """
        indices = [int(k) for k in relation_indices]
        for k in indices:
            if not 0 <= k < self.n_relations:
                raise ValidationError(
                    f"relation index {k} out of range [0, {self.n_relations})"
                )
        if len(set(indices)) != len(indices):
            raise ValidationError("relation indices must be distinct")
        slices = [self._tensor.relation_slice(k) for k in indices]
        tensor = SparseTensor3.from_slices(slices, n=self.n_nodes)
        if names is None:
            names = [self._relation_names[k] for k in indices]
        return self.derive(tensor=tensor, relation_names=names)

    def __repr__(self) -> str:
        kind = "multi-label" if self._multilabel else "single-label"
        return (
            f"HIN(n_nodes={self.n_nodes}, n_relations={self.n_relations}, "
            f"n_labels={self.n_labels}, n_features={self.n_features}, {kind}, "
            f"nnz={self._tensor.nnz})"
        )


def _checked_tensor(tensor) -> SparseTensor3:
    if not isinstance(tensor, SparseTensor3):
        raise ValidationError(
            f"tensor must be a SparseTensor3, got {type(tensor).__name__}"
        )
    return tensor


def _name_tuple(names, count: int, kind: str, source: str = "") -> tuple[str, ...]:
    """``count`` distinct names as a tuple of ``str``."""
    names = tuple(str(name) for name in names)
    if len(names) != count:
        raise ShapeError(f"expected {count} {kind} names{source}, got {len(names)}")
    if len(set(names)) != count:
        raise ValidationError(f"{kind} names must be distinct")
    return names


def _checked_features(features, rows=None):
    """A float feature matrix (dense 2-D or CSR), finite on ``rows`` (default all)."""
    if sp.issparse(features):
        features = sp.csr_matrix(features, dtype=float)
        values = features.data if rows is None else features[rows].data
    else:
        features = np.asarray(features, dtype=float)
        if features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got shape {features.shape}")
        values = features if rows is None else features[rows]
    if values.size and not np.all(np.isfinite(values)):
        raise ValidationError("features contain non-finite values")
    return features


def _checked_labels(label_matrix, n: int, multilabel: bool) -> np.ndarray:
    """A read-only boolean ``(n, q)`` label-matrix copy obeying the single-label rule."""
    label_matrix = np.array(label_matrix, dtype=bool)
    if label_matrix.ndim != 2 or label_matrix.shape[0] != n:
        raise ShapeError(
            f"label_matrix must be (n, q) = ({n}, q), got {label_matrix.shape}"
        )
    if not multilabel and np.any(label_matrix.sum(axis=1) > 1):
        raise ValidationError(
            "label_matrix has rows with multiple labels; pass multilabel=True"
        )
    label_matrix.setflags(write=False)
    return label_matrix
