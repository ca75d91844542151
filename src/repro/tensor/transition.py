"""Transition probability tensors ``O`` and ``R`` (Eq. 1 and 2).

``O[i, j, k] = A[i, j, k] / sum_i A[i, j, k]`` is the probability of
stepping to node ``i`` given the walk sits at node ``j`` and uses relation
``k``.  ``R[i, j, k] = A[i, j, k] / sum_k A[i, j, k]`` is the probability
of using relation ``k`` for the step ``j -> i``.

Dangling fibres — a ``(j, k)`` column with no out-weight, or an ``(i, j)``
pair with no relation — are defined by the paper as uniform (``1/n`` resp.
``1/m``).  Materialising those would destroy sparsity (*every* node pair
without a link is an ``R`` dangling fibre), so both classes keep the sparse
normalised part and apply the uniform correction *analytically* inside
their product methods.  The corrections are exact: when the inputs are
probability distributions the outputs are too (Theorem 1).

Kernel layout
-------------
Both tensors expose two contraction entry points:

* ``propagate(x, z)`` — one distribution pair, the Algorithm 1 step;
* ``propagate_many(X, Z)`` — ``q`` distribution pairs at once, stacked as
  columns of ``(n, q)`` / ``(m, q)`` matrices.  This is the kernel behind
  T-Mark's batched multi-class fit: all per-class chains advance through
  one set of sparse products instead of ``q`` sequential passes.

``O`` is stored as its ``m`` per-relation ``(n, n)`` CSR slices ``M_k``
(column ``j`` of ``M_k`` is the normalised fibre ``O[:, j, k]``), so the
contraction ``O x-bar_1 x x-bar_3 z`` becomes ``sum_k z_k (M_k @ x)``
with *no* ``(n * m)``-sized Kronecker temporary; batching ``q`` columns
through each ``M_k`` amortises the sparse-structure traversal across all
classes.  ``propagate`` delegates to ``propagate_many`` on a single
column, which guarantees the two paths are the same floating-point
computation — the property the batched-fit equivalence tests pin down.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.errors import ValidationError
from repro.tensor.sptensor import SparseTensor3, normalise_fibres
from repro.utils.validation import check_array_1d, check_array_2d


def _column_sums(matrix: np.ndarray) -> np.ndarray:
    """Per-column sums via 1-D reductions.

    ``matrix.sum(axis=0)`` uses a different accumulation order than a 1-D
    column sum, so its result depends on how many columns ride along in
    the batch.  Summing column by column keeps ``propagate_many`` output
    bit-for-bit identical to per-column ``propagate`` calls — the
    batching contract the property tests pin down.  The loop is over the
    (small) column count; each reduction is numpy-vectorised.
    """
    out = np.empty(matrix.shape[1])
    for c in range(matrix.shape[1]):
        out[c] = matrix[:, c].sum()
    return out


class NodeTransitionTensor:
    """The node-transition tensor ``O`` of Eq. 1, with implicit dangling mass.

    Stores the normalised tensor as ``m`` per-relation ``(n, n)`` CSR
    slices and an ``(m, n)`` indicator of the non-dangling ``(j, k)``
    columns used to vectorise the uniform correction.  The mode-1
    matricization behind :meth:`matricized` / :meth:`to_dense` is
    stacked from the slices on first use.
    """

    __slots__ = ("_mat", "_slices", "_nondangling_cols", "_nd_indicator", "_n", "_m")

    def __init__(self, tensor: SparseTensor3):
        n, _, m = tensor.shape
        self._n = n
        self._m = m
        i, j, k = tensor.coords
        col_sums = tensor.mode1_column_sums()
        nondangling = col_sums > 0
        # Normalise each non-dangling column to sum to one.
        scale = np.ones_like(col_sums)
        scale[nondangling] = 1.0 / col_sums[nondangling]
        values = tensor.values * scale[k * n + j]
        # Coords are sorted by (k, j, i): each relation is one contiguous
        # run, and its entries fill slice M_k at (i, j).
        runs = np.searchsorted(k, np.arange(m + 1))
        self._slices = tuple(
            sp.csr_matrix((values[a:b], (i[a:b], j[a:b])), shape=(n, n))
            for a, b in zip(runs[:-1], runs[1:])
        )
        self._mat = None  # propagate_many never needs the matricization
        self._nondangling_cols = np.flatnonzero(nondangling)
        k_nd, j_nd = np.divmod(self._nondangling_cols, n)
        self._nd_indicator = sp.csr_matrix(
            (np.ones(self._nondangling_cols.size), (k_nd, j_nd)), shape=(m, n)
        )

    def _matricized(self) -> sp.csr_matrix:
        if self._mat is None:
            self._mat = sp.hstack(self._slices, format="csr")
        return self._mat

    @property
    def shape(self) -> tuple[int, int, int]:
        """Logical tensor shape ``(n, n, m)``."""
        return (self._n, self._n, self._m)

    @property
    def n_dangling(self) -> int:
        """Number of dangling ``(j, k)`` columns (uniform 1/n fibres)."""
        return self._n * self._m - self._nondangling_cols.size

    @property
    def dangling_share(self) -> float:
        """Fraction of the ``n * m`` mode-1 columns that are dangling.

        The share of the walk's conditional distributions the O-build
        had to repair with the analytic uniform ``1/n`` fibre; reported
        by the ``invariant_probe`` diagnostics so a network whose
        propagation is dominated by the uniform correction is visible.
        """
        return self.n_dangling / (self._n * self._m)

    def matricized(self) -> sp.csr_matrix:
        """The sparse part of the mode-1 matricization (dangling cols zero)."""
        return self._matricized().copy()

    def relation_slice(self, k: int) -> sp.csr_matrix:
        """The normalised ``(n, n)`` slice ``M_k`` (dangling columns zero)."""
        if not 0 <= k < self._m:
            raise ValidationError(f"relation index {k} out of range [0, {self._m})")
        return self._slices[k].copy()

    @property
    def relation_nnz(self) -> tuple[int, ...]:
        """Stored entries per relation slice (``M_k.nnz``).

        A slice with zero entries is skipped by :meth:`propagate_many`;
        sharded row workers replicate exactly that skip condition, so
        the *global* counts — not the per-shard ones — are what they
        consult.
        """
        return tuple(int(slice_k.nnz) for slice_k in self._slices)

    def row_blocks(self, start: int, stop: int) -> tuple[sp.csr_matrix, ...]:
        """Rows ``[start, stop)`` of every relation slice, as CSR blocks.

        CSR row slicing copies only the block's entries, and a sparse
        row block times a dense matrix reproduces the corresponding rows
        of the full product bit-for-bit — the property the sharded fit's
        bit-identity contract rests on.
        """
        return tuple(slice_k[start:stop] for slice_k in self._slices)

    def row_nnz(self) -> np.ndarray:
        """Per-row stored-entry counts summed over all relation slices.

        The balanced-nnz shard planner's row weights: row ``i``'s cost in
        the O-propagation is proportional to its entries across slices.
        """
        weights = np.zeros(self._n, dtype=np.int64)
        for slice_k in self._slices:
            weights += np.diff(slice_k.indptr)
        return weights

    def dangling_mass(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """The per-column uncovered mass the uniform ``1/n`` fibres carry.

        Exactly the correction term :meth:`propagate_many` adds (before
        the ``1/n`` scaling): ``max(colsum(X) * colsum(Z) -
        colsum(Z * (nd @ X)), 0)``.  Exposed so the sharded fit's
        coordinator can compute the global scalar part of the
        propagation itself — it is a column-global reduction that must
        not be split across shards if bit-identity is to hold.
        """
        totals = _column_sums(X) * _column_sums(Z)
        covered = _column_sums(Z * (self._nd_indicator @ X))
        return np.maximum(totals - covered, 0.0)

    def propagate(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Compute ``O x-bar_1 x x-bar_3 z`` (the contraction in Eq. 7/10).

        Returns the length-``n`` vector with entries
        ``sum_{j,k} O[i, j, k] * x[j] * z[k]`` including the uniform
        contribution of dangling columns.  Delegates to
        :meth:`propagate_many` on a single column so the looped and
        batched paths are the identical floating-point computation.
        """
        x = check_array_1d(x, "x", size=self._n)
        z = check_array_1d(z, "z", size=self._m)
        return self.propagate_many(x[:, None], z[:, None])[:, 0]

    def propagate_many(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Batched contraction: ``q`` pairs ``(x, z)`` stacked as columns.

        Parameters
        ----------
        X:
            ``(n, q)`` matrix; column ``c`` is a node distribution.
        Z:
            ``(m, q)`` matrix; column ``c`` is a relation distribution.

        Returns
        -------
        ``(n, q)`` matrix whose column ``c`` equals
        ``propagate(X[:, c], Z[:, c])``: the sparse part is
        ``sum_k Z[k, c] * (M_k @ X[:, c])`` computed as ``m`` sparse
        matrix-matrix products shared by all columns, and the dangling
        ``1/n`` correction is applied per column from the analytically
        tracked uncovered mass.
        """
        X = check_array_2d(X, "X", shape=(self._n, None))
        Z = check_array_2d(Z, "Z", shape=(self._m, X.shape[1]))
        result = np.zeros_like(X)
        for k, slice_k in enumerate(self._slices):
            if slice_k.nnz == 0:
                continue
            contribution = slice_k @ X
            contribution *= Z[k]
            result += contribution
        dangling = self.dangling_mass(X, Z)
        result += dangling / self._n
        return result

    def to_dense(self) -> np.ndarray:
        """Materialise the full ``(n, n, m)`` tensor including dangling fibres.

        Intended for tests and tiny examples only.
        """
        dense = np.full((self._n, self._n, self._m), 0.0)
        mat = self._matricized().tocoo()
        k, j = np.divmod(mat.col, self._n)
        dense[mat.row, j, k] = mat.data
        dangling = np.ones(self._n * self._m, dtype=bool)
        dangling[self._nondangling_cols] = False
        for col in np.flatnonzero(dangling):
            k, j = divmod(col, self._n)
            dense[:, j, k] = 1.0 / self._n
        return dense


class RelationTransitionTensor:
    """The relation-transition tensor ``R`` of Eq. 2, with implicit dangling mass.

    Stores the normalised entries as ``m`` per-relation ``(n, n)`` CSR
    slices ``B_k`` (``B_k[i, j] = R[i, j, k]``) plus an ``(n, n)``
    indicator of the linked ``(i, j)`` pairs, so both the per-relation
    reductions and the uniform ``1/m`` correction for unlinked pairs are
    sparse matrix products shared by every column of a batch — no
    ``(nnz, q)`` gather temporary.
    """

    __slots__ = (
        "_rel_slices",
        "_pair_indicator",
        "_pair_i",
        "_pair_j",
        "_n",
        "_m",
    )

    def __init__(self, tensor: SparseTensor3):
        n, _, m = tensor.shape
        self._n = n
        self._m = m
        i, j, k = tensor.coords
        values = tensor.values
        linked, norm_values = normalise_fibres(j * n + i, values)
        # B_k holds relation k's normalised entries at (i, j): the Eq. 8
        # reduction z_k = sum_{i,j} R[i,j,k] x_i y_j becomes the bilinear
        # form x^T (B_k @ y), batched over columns.
        runs = np.searchsorted(k, np.arange(m + 1))
        self._rel_slices = tuple(
            sp.csr_matrix((norm_values[a:b], (i[a:b], j[a:b])), shape=(n, n))
            for a, b in zip(runs[:-1], runs[1:])
        )
        self._pair_j, self._pair_i = np.divmod(linked, n)
        self._pair_indicator = sp.csr_matrix(
            (np.ones(linked.size), (self._pair_i, self._pair_j)), shape=(n, n)
        )

    @property
    def shape(self) -> tuple[int, int, int]:
        """Logical tensor shape ``(n, n, m)``."""
        return (self._n, self._n, self._m)

    @property
    def n_linked_pairs(self) -> int:
        """Number of ``(i, j)`` pairs connected by at least one relation."""
        return self._pair_i.size

    @property
    def unlinked_share(self) -> float:
        """Fraction of the ``n^2`` node pairs with no relation at all.

        Those pairs are the ``R`` dangling fibres carrying the uniform
        ``1/m`` correction; the share is near 1 on any sparse network
        (every absent link is one), so the ``invariant_probe``
        diagnostics report it alongside the O-side dangling share to
        show how much of Eq. 8's mass flows through the correction.
        """
        return 1.0 - self.n_linked_pairs / (self._n * self._n)

    @property
    def relation_nnz(self) -> tuple[int, ...]:
        """Stored entries per relation slice (``B_k.nnz``).

        :meth:`propagate_many` writes a literal ``0.0`` row for an empty
        slice instead of evaluating the bilinear form; the sharded fit's
        coordinator consults these global counts to reproduce that exact
        branch.
        """
        return tuple(int(slice_k.nnz) for slice_k in self._rel_slices)

    def row_blocks(self, start: int, stop: int) -> tuple[sp.csr_matrix, ...]:
        """Rows ``[start, stop)`` of every relation slice, as CSR blocks."""
        return tuple(slice_k[start:stop] for slice_k in self._rel_slices)

    def pair_rows(self, start: int, stop: int) -> sp.csr_matrix:
        """Rows ``[start, stop)`` of the linked-pair indicator."""
        return self._pair_indicator[start:stop]

    def row_nnz(self) -> np.ndarray:
        """Per-row entry counts over the relation slices + pair indicator."""
        weights = np.zeros(self._n, dtype=np.int64)
        for slice_k in self._rel_slices:
            weights += np.diff(slice_k.indptr)
        weights += np.diff(self._pair_indicator.indptr)
        return weights

    def propagate(self, x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
        """Compute ``R x-bar_1 x x-bar_2 y`` (the contraction in Eq. 8).

        Returns the length-``m`` vector with entries
        ``sum_{i,j} R[i, j, k] * x[i] * y[j]`` including the uniform 1/m
        contribution of unlinked node pairs.  ``y`` defaults to ``x`` (the
        form used in Algorithm 1, step 6).  Delegates to
        :meth:`propagate_many` on a single column.
        """
        x = check_array_1d(x, "x", size=self._n)
        y = x if y is None else check_array_1d(y, "y", size=self._n)
        return self.propagate_many(x[:, None], y[:, None])[:, 0]

    def propagate_many(
        self, X: np.ndarray, Y: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched contraction: ``q`` pairs ``(x, y)`` stacked as columns.

        Parameters
        ----------
        X, Y:
            ``(n, q)`` matrices of node distributions; ``Y`` defaults to
            ``X`` (the Algorithm 1 form).

        Returns
        -------
        ``(m, q)`` matrix whose column ``c`` equals
        ``propagate(X[:, c], Y[:, c])``.  Row ``k`` is the batched
        bilinear form ``X[:, c]^T (B_k @ Y[:, c])`` — one sparse product
        per relation shared by all columns — plus the unlinked-pair
        ``1/m`` correction computed the same way from the pair
        indicator.
        """
        X = check_array_2d(X, "X", shape=(self._n, None))
        Y = X if Y is None else check_array_2d(Y, "Y", shape=(self._n, X.shape[1]))
        result = np.empty((self._m, X.shape[1]))
        for k, slice_k in enumerate(self._rel_slices):
            if slice_k.nnz == 0:
                result[k] = 0.0
                continue
            result[k] = _column_sums(X * (slice_k @ Y))
        totals = _column_sums(X) * _column_sums(Y)
        linked_mass = _column_sums(X * (self._pair_indicator @ Y))
        dangling = np.maximum(totals - linked_mass, 0.0)
        result += dangling / self._m
        return result

    def to_dense(self) -> np.ndarray:
        """Materialise the full ``(n, n, m)`` tensor including dangling fibres.

        Intended for tests and tiny examples only.
        """
        dense = np.full((self._n, self._n, self._m), 1.0 / self._m)
        dense[self._pair_i, self._pair_j, :] = 0.0
        for k, slice_k in enumerate(self._rel_slices):
            coo = slice_k.tocoo()
            dense[coo.row, coo.col, k] = coo.data
        return dense


def build_transition_tensors(
    tensor: SparseTensor3,
) -> tuple[NodeTransitionTensor, RelationTransitionTensor]:
    """Build the ``(O, R)`` pair of section 3.1 from an adjacency tensor."""
    return NodeTransitionTensor(tensor), RelationTransitionTensor(tensor)


def is_irreducible(tensor: SparseTensor3) -> bool:
    """Check the paper's irreducibility assumption on ``A``.

    The tensor is treated as irreducible when the aggregated directed graph
    over all relations is strongly connected (any node reaches any other
    via some chain of relations).  The restart term of Eq. 10 makes T-Mark
    well-behaved even without this property, but positivity of the
    stationary distributions (Theorem 2) is only guaranteed with it.
    """
    if tensor.n_nodes == 1:
        return True
    agg = tensor.aggregate_relations()
    n_components, _ = connected_components(agg, directed=True, connection="strong")
    return bool(n_components == 1)

