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
  columns of ``(n, q)`` / ``(m, q)`` matrices: the kernel behind
  T-Mark's batched multi-class fit.

Each tensor keeps its ``m`` per-relation ``(n, n)`` CSR slices as *one*
vertically stacked CSR matrix (row ``k*n + i`` is row ``i`` of slice
``k``; ``R`` appends its linked-pair indicator as block ``m``), so a
contraction is a single sparse product with one C-contiguous copy of
the input block, whatever ``m`` is — no ``(n * m)``-sized Kronecker
temporary.

``O x-bar_1 x x-bar_3 z`` runs over the stack's *live* rows only (rows
with at least one entry; with many link types and few links per node
most ``(k, i)`` rows are empty).  :func:`live_rows` indexes a block of
rows: a CSR of its live rows sharing the block's entries, their count
per relation and a 0/1 ``gather`` matrix with one entry per live row.
:meth:`NodeTransitionTensor.relation_sum` is then ``p = rows @ X``,
``p *= Z`` repeated per live row of each relation (one contiguous
multiply) and ``gather @ p``; when every row is live it scales the
``(m, rows, q)`` blocks by ``Z`` and adds them in ``k`` order instead.
This is exact: each live row's product and scaling are the same
operations as over the full stack, both adds start from ``+0.0`` and go
in ``k`` order, and every skipped row would have added an exact
``+0.0`` (a finite sum that starts at ``+0.0`` is never ``-0.0``).

``R x-bar_1 x x-bar_2 y`` multiplies every block by ``x`` and takes
per-column sums; those need the zero rows, so ``R``'s product writes
the full ``((m+1)*n, q)`` stack.  How an in-memory block of rows is
multiplied depends on how many of them are live
(:func:`product_operand`): below half live it goes through a CSC copy,
a pass over the ``n`` columns and the stored entries instead of over
every row.  The bytes are the same: a CSC product adds row ``i``'s
terms in ascending column order starting from ``+0.0``, which is what
the CSR product does on a row whose indices are sorted, so the copy is
only made from a sorted stack.  Heavier stacks stay on rows, where the
CSR pass is faster.

Row walks
---------
Both tensors apply their stack only through :meth:`RowWalk.row_walk`:
``row_walk(start, stop)`` yields ``(a, b, block)`` blocks tiling rows
``[start, stop)`` of every relation, ``block`` being the kernels'
operand of those rows (``O``: their :class:`LiveRows`; ``R``: the rows
themselves or their CSC copy).  ``propagate_many`` walks ``(0, n)``;
the sharded fit's workers walk their shards' ranges.  In memory a range
is one block, built on its first walk and kept, and the whole range's
block is built with the tensor.  A tensor over the operator cache's
memory-mapped stack (``from_stack(..., chunk_size=)``, see
:mod:`repro.ooc`) walks ``chunk_size``-row CSR blocks instead, built as
they are walked and never copied to CSC, and releases the stack's pages
after each, so one block is resident.  A CSR row's product depends
only on that row's entries, so every walk gives the same bytes.
``propagate`` delegates to ``propagate_many`` on a single column, so
the looped and batched paths are the same floating-point computation.
"""

from __future__ import annotations

import mmap
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.errors import ValidationError
from repro.tensor.sptensor import SparseTensor3, normalise_fibres
from repro.utils.validation import check_array_1d, check_array_2d


def _column_sums(matrix: np.ndarray) -> np.ndarray:
    """Per-column sums via 1-D reductions, over axis ``-2``.

    ``matrix.sum(axis=0)`` uses a different accumulation order than a 1-D
    column sum, so its result depends on how many columns ride along in
    the batch.  Summing column by column keeps ``propagate_many`` output
    bit-for-bit identical to per-column ``propagate`` calls — the
    batching contract the property tests pin down.  The loop is over the
    (small) column count; each reduction is numpy-vectorised, and a
    stack of ``(n, q)`` blocks gets one 1-D sum per block and column.
    """
    out = np.empty(matrix.shape[:-2] + matrix.shape[-1:])
    for c in range(matrix.shape[-1]):
        out[..., c] = matrix[..., c].sum(axis=-1)
    return out


def _uncovered_mass(X: np.ndarray, Z: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """The mass ``O``'s uniform ``1/n`` fibres carry, per column, before
    the ``1/n``: ``max(colsum(X) * colsum(Z) - colsum(Z * covered), 0)``,
    ``covered`` being ``X``'s ``(m, q)`` mass on non-dangling columns."""
    totals = _column_sums(X) * _column_sums(Z)
    return np.maximum(totals - _column_sums(Z * covered), 0.0)


def _unlinked_mass(X: np.ndarray, Y: np.ndarray, linked: np.ndarray) -> np.ndarray:
    """The mass ``R``'s unlinked pairs carry, per column, before the ``1/m``:
    ``max(colsum(X) * colsum(Y) - linked, 0)``, ``X``'s sums taken once
    when ``Y`` is ``X``."""
    x_sums = _column_sums(X)
    y_sums = x_sums if Y is X else _column_sums(Y)
    return np.maximum(x_sums * y_sums - linked, 0.0)


def _stack_slices(values, i, j, k, n: int, m: int) -> sp.csr_matrix:
    """The ``(m*n, n)`` stack with ``values`` at rows ``k*n + i``, columns ``j``.

    Indices are formed in the CSR index dtype, so the conversion copies
    none; ``(k, j, i)``-sorted coords fill every row in column order.
    """
    rows = k.astype(np.int32 if m * n < 2**31 else np.int64)
    rows *= n
    np.add(rows, i, out=rows, casting="unsafe")
    return sp.csr_matrix((values, (rows, j.astype(rows.dtype))), shape=(m * n, n))


class LiveRows(NamedTuple):
    """The live rows of an ``O`` stack, the operand of ``O``'s relation sum.

    A *live* row holds at least one entry.  ``rows`` is the CSR of those
    rows in stack order (it shares the stack's ``data`` / ``indices``),
    ``counts[k]`` the number of them in block ``k``, and ``gather`` the
    ``(block_rows, L)`` 0/1 CSC matrix that adds live row ``t`` into
    node row ``live[t] % block_rows``.
    """

    rows: sp.csr_matrix
    counts: np.ndarray
    gather: sp.csc_matrix

    @property
    def all_live(self) -> bool:
        """Whether every row of every block is live (no row was skipped)."""
        return self.rows.shape[0] == self.counts.size * self.gather.shape[0]


def live_rows(stacked: sp.csr_matrix, n_blocks: int) -> LiveRows:
    """The :class:`LiveRows` of ``stacked``, ``n_blocks`` equal row blocks.

    Vectorised and sort-free: the live rows' CSR takes the stack's
    ``indptr`` at those rows plus its last entry (the rows between two
    live rows are empty, so each live row ends where the next begins),
    the per-block counts are a search of the block starts in the sorted
    live rows, and the gather has one entry per column, already in CSC
    order.
    """
    indptr = stacked.indptr
    # A boolean mask: np.flatnonzero is ~5x slower on integer input.
    live = np.flatnonzero(indptr[1:] != indptr[:-1])
    block_rows = stacked.shape[0] // n_blocks
    rows_ptr = np.empty(live.size + 1, dtype=indptr.dtype)
    rows_ptr[:-1] = indptr[live]
    rows_ptr[-1] = indptr[-1]
    rows = sp.csr_matrix(
        (stacked.data, stacked.indices, rows_ptr),
        shape=(live.size, stacked.shape[1]),
        copy=False,
    )
    starts = np.arange(n_blocks) * block_rows
    counts = np.diff(np.searchsorted(live, np.append(starts, stacked.shape[0])))
    node = live - np.repeat(starts, counts)
    gather = sp.csc_matrix(
        (np.ones(live.size), node, np.arange(live.size + 1)),
        shape=(block_rows, live.size),
    )
    return LiveRows(rows, counts, gather)


def live_share(stacked: sp.csr_matrix) -> float:
    """Share of ``stacked``'s rows that hold at least one entry."""
    indptr = stacked.indptr
    return np.count_nonzero(indptr[1:] != indptr[:-1]) / max(stacked.shape[0], 1)


def product_operand(stacked: sp.csr_matrix) -> sp.csr_matrix | sp.csc_matrix:
    """The matrix ``R``'s integrands multiply ``Y`` through, for ``stacked``.

    A CSC copy of ``stacked`` when fewer than half of its rows hold an
    entry and its indices are sorted, else ``stacked`` itself.  The CSC
    product visits only the columns and the stored entries, and adds
    row ``i``'s terms in ascending column order from ``+0.0`` — what the
    CSR product does on sorted rows — so both give the same bytes.  On
    an unsorted stack the orders differ, so it stays on rows.
    """
    if live_share(stacked) < 0.5 and stacked.has_sorted_indices:
        return stacked.tocsc()
    return stacked


def release_pages(*arrays) -> None:
    """Advise the kernel to drop the resident pages of memmap arrays.

    On a large-memory box nothing ever evicts clean mmap pages, so a
    whole pass over the operator files would leave them fully resident
    and defeat the point of streaming.  ``MADV_DONTNEED`` returns the
    pages immediately; the next iteration re-reads them from the page
    cache/disk.  Best-effort: silently skips non-memmap inputs and
    platforms without ``madvise``.
    """
    for array in arrays:
        base = array
        while base is not None and not isinstance(base, np.memmap):
            base = getattr(base, "base", None)
        handle = getattr(base, "_mmap", None)
        if handle is None:
            continue
        try:
            handle.madvise(mmap.MADV_DONTNEED)
        except (AttributeError, ValueError, OSError):  # pragma: no cover
            pass


class RowWalk:
    """A row-stacked CSR operator, applied block of rows by block of rows.

    :meth:`row_walk` is the one way the chain kernels read the rows of
    ``O``, ``R`` and a sparse ``W``.  In memory (no ``chunk_size``) a
    range is one :meth:`row_stack` block, built on its first walk and
    kept.  Over memory-mapped arrays (a ``chunk_size``) it is cut into
    ``chunk_size``-row blocks, built as they are walked, and the arrays'
    pages are released after each block, so one block is resident.
    """

    __slots__ = ("_stacked", "_chunk_size", "_kept")

    def __init__(self, stacked: sp.csr_matrix, chunk_size: int | None = None):
        self._stacked = stacked
        self._chunk_size = chunk_size
        self._kept = {}

    @property
    def shape(self) -> tuple[int, ...]:
        """Matrix shape ``(n, n)``."""
        return self._stacked.shape

    def row_stack(self, start: int, stop: int):
        """Rows ``[start, stop)``: the block :meth:`row_walk` yields."""
        return self._stacked[start:stop]

    def row_blocks(self, start: int, stop: int) -> tuple[sp.csr_matrix, ...]:
        """Rows ``[start, stop)`` as CSR blocks: the shard planner's halo input."""
        return (self._stacked[start:stop],)

    def row_nnz(self) -> np.ndarray:
        """Per-row entry counts: the shard planner's row weights."""
        return np.diff(self._stacked.indptr)

    def row_walk(self, start: int, stop: int):
        """``(a, b, self.row_stack(a, b))`` for blocks tiling ``[start, stop)``.

        A CSR row's product depends only on that row's entries, so the
        blocks give rows ``[start, stop)`` of the whole product bit for
        bit, however the range is cut.
        """
        if self._chunk_size is None:
            block = self._kept.get((start, stop))
            if block is None:
                block = self._kept[start, stop] = self.row_stack(start, stop)
            return ((start, stop, block),)
        return self._chunks(start, stop)

    def _chunks(self, start: int, stop: int):
        stacked, chunk = self._stacked, self._chunk_size
        for a in range(start, stop, chunk):
            b = min(a + chunk, stop)
            yield a, b, self.row_stack(a, b)
            release_pages(stacked.indptr, stacked.indices, stacked.data)


class _StackedSlices(RowWalk):
    """Relation slices kept as one vertically stacked CSR matrix.

    Row ``b*n + i`` of ``_stacked`` is row ``i`` of block ``b``; blocks
    ``0 .. m-1`` are the relation slices.  A walked block holds the
    walked rows of every block, indexed for the kernel by ``_index``.
    """

    __slots__ = ("_n", "_m")

    def _walk_stack(self, stacked, chunk_size: int | None) -> None:
        """Walk ``stacked``; in memory, its whole range is indexed now."""
        RowWalk.__init__(self, stacked, chunk_size)
        if chunk_size is None:
            self._kept[0, self._n] = self._index(stacked)

    @property
    def shape(self) -> tuple[int, int, int]:
        """Logical tensor shape ``(n, n, m)``."""
        return (self._n, self._n, self._m)

    @property
    def relation_nnz(self) -> tuple[int, ...]:
        """Stored entries per relation slice (the kernels skip empty ones)."""
        bounds = self._stacked.indptr[: self._m * self._n + 1:self._n]
        return tuple(int(v) for v in np.diff(bounds))

    def row_blocks(self, start: int, stop: int) -> tuple[sp.csr_matrix, ...]:
        """Rows ``[start, stop)`` of every relation slice, as CSR blocks.

        CSR row slicing copies only the block's entries, and a sparse
        row block times a dense matrix reproduces the corresponding rows
        of the full product bit-for-bit — the property the sharded fit's
        bit-identity contract rests on.
        """
        n = self._n
        return tuple(
            self._stacked[k * n + start:k * n + stop] for k in range(self._m)
        )

    def row_stack(self, start: int, stop: int):
        """Rows ``[start, stop)`` of every block, indexed for the kernel.

        Each block's rows are one contiguous run of the stack's entries,
        copied once into one CSR (``R``'s linked-pair rows come last, as
        its block ``m``).
        """
        stacked, n = self._stacked, self._n
        indptr = stacked.indptr
        runs = [(b + start, b + stop) for b in range(0, stacked.shape[0], n)]
        counts = np.concatenate([np.diff(indptr[a:z + 1]) for a, z in runs])
        rows_ptr = np.zeros(counts.size + 1, dtype=indptr.dtype)
        np.cumsum(counts, out=rows_ptr[1:])

        def entries(array):
            return np.concatenate([array[indptr[a]:indptr[z]] for a, z in runs])

        return self._index(sp.csr_matrix(
            (entries(stacked.data), entries(stacked.indices), rows_ptr),
            shape=(counts.size, n),
        ))

    @property
    def live_share(self) -> float:
        """Share of the stack's rows that hold an entry (:func:`live_share`)."""
        return live_share(self._stacked)

    def row_nnz(self) -> np.ndarray:
        """Per-row entry counts over every block: the shard planner's row weights."""
        counts = np.diff(self._stacked.indptr).reshape(-1, self._n)
        return counts.sum(axis=0, dtype=np.int64)


class NodeTransitionTensor(_StackedSlices):
    """The node-transition tensor ``O`` of Eq. 1, with implicit dangling mass.

    Stores the normalised slices ``M_k`` stacked into one ``(m*n, n)``
    CSR matrix, walked as :class:`LiveRows` blocks, plus an ``(m, n)``
    indicator of the non-dangling ``(j, k)`` columns used to vectorise
    the uniform correction.
    """

    __slots__ = ("_nd_indicator",)

    def __init__(self, tensor: SparseTensor3):
        n, _, m = tensor.shape
        i, j, k = tensor.coords
        col_sums = tensor.mode1_column_sums()
        nondangling = col_sums > 0
        # Normalise each non-dangling column to sum to one.
        scale = np.ones_like(col_sums)
        scale[nondangling] = 1.0 / col_sums[nondangling]
        values = tensor.values * scale[k * n + j]
        self._adopt(_stack_slices(values, i, j, k, n, m), nondangling.reshape(m, n))

    @classmethod
    def from_stack(
        cls, stacked, nondangling: np.ndarray, *, chunk_size: int | None = None
    ) -> "NodeTransitionTensor":
        """``O`` over a normalised ``(m*n, n)`` stack and its ``(m, n)``
        non-dangling mask; ``chunk_size`` rows per walked block when the
        stack is memory-mapped (:class:`RowWalk`)."""
        tensor = cls.__new__(cls)
        tensor._adopt(stacked, nondangling, chunk_size)
        return tensor

    def _adopt(self, stacked, nondangling: np.ndarray, chunk_size=None) -> None:
        """Take a normalised ``(m*n, n)`` stack and its ``(m, n)`` non-dangling mask."""
        self._m, self._n = nondangling.shape
        self._walk_stack(stacked, chunk_size)
        k, j = np.nonzero(nondangling)
        self._nd_indicator = sp.csr_matrix(
            (np.ones(k.size), (k, j)), shape=nondangling.shape
        )

    def _index(self, rows: sp.csr_matrix) -> LiveRows:
        """The :class:`LiveRows` of a walked block of rows."""
        return live_rows(rows, self._m)

    @property
    def _nondangling_cols(self) -> np.ndarray:
        """Sorted flat ``k*n + j`` ids of the non-dangling columns."""
        indicator = self._nd_indicator
        k = np.repeat(np.arange(self._m), np.diff(indicator.indptr))
        return k * self._n + indicator.indices

    @property
    def n_dangling(self) -> int:
        """Number of dangling ``(j, k)`` columns (uniform 1/n fibres)."""
        return self._n * self._m - self._nd_indicator.nnz

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
        return sp.hstack(self.row_blocks(0, self._n), format="csr")

    def relation_slice(self, k: int) -> sp.csr_matrix:
        """The normalised ``(n, n)`` slice ``M_k`` (dangling columns zero)."""
        if not 0 <= k < self._m:
            raise ValidationError(f"relation index {k} out of range [0, {self._m})")
        return self._stacked[k * self._n:(k + 1) * self._n]

    def dangling_mass(
        self, X: np.ndarray, Z: np.ndarray, x: np.ndarray | None = None
    ) -> np.ndarray:
        """The per-column uncovered mass :meth:`propagate_many` adds (before
        the ``1/n`` scaling).  Exposed so the sharded fit's coordinator can
        finish the workers' :meth:`relation_sum` rows with it: a
        column-global reduction, not split across shards.  ``x``, if
        given, is ``X`` C-contiguous, the copy the product then reads
        (scipy would copy an F-ordered ``X`` again)."""
        return _uncovered_mass(X, Z, self._nd_indicator @ (X if x is None else x))

    def relation_sum(self, X: np.ndarray, Z: np.ndarray, live: LiveRows) -> np.ndarray:
        """Rows ``[a, b)`` of the sparse part ``sum_k Z[k] * (M_k @ X)``,
        for a block ``(a, b, live)`` of :meth:`row_walk`, blocks added in
        ``k`` order.

        Only the live rows are multiplied, scaled and added: ``p = rows
        @ X``, ``p *= Z`` repeated per live row of each block, then
        ``gather @ p`` adds each node's live rows in stack (``k``) order
        into zeros.  When every row is live, ``p``'s ``(m, rows, q)``
        blocks are scaled by ``Z`` and added in ``k`` order from
        ``+0.0`` instead, the same operations without the repeat and
        the gather.  ``X`` is the full ``(n, q)`` input.  Returns a
        fresh C-contiguous array; inputs are not validated.
        """
        products = live.rows @ np.ascontiguousarray(X)
        if not live.all_live:
            products *= np.repeat(Z, live.counts, axis=0)
            return live.gather @ products
        blocks = products.reshape(Z.shape[0], live.gather.shape[0], Z.shape[1])
        blocks *= Z[:, None, :]
        # 0 + p_0, as the gather adds it: a -0.0 becomes +0.0.
        total = blocks[0] + 0.0
        for block in blocks[1:]:
            total += block
        return total

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

        ``X`` is ``(n, q)`` (node distributions), ``Z`` is ``(m, q)``
        (relation distributions).  Returns the ``(n, q)`` matrix whose
        column ``c`` equals ``propagate(X[:, c], Z[:, c])``: the sparse
        part :meth:`relation_sum` over every walked block of rows plus
        the dangling ``1/n`` correction applied per column from the
        analytically tracked uncovered mass.
        """
        X = check_array_2d(X, "X", shape=(self._n, None))
        Z = check_array_2d(Z, "Z", shape=(self._m, X.shape[1]))
        x = np.ascontiguousarray(X)
        # In the caller's layout, which the x-step and its probe column sums
        # inherit; the relation sum holds no -0.0, so this is zeros + sum.
        result = np.empty_like(X)
        for a, b, live in self.row_walk(0, self._n):
            result[a:b] = self.relation_sum(x, Z, live)
        result += self.dangling_mass(X, Z, x) / self._n
        return result

    def to_dense(self) -> np.ndarray:
        """Materialise the full ``(n, n, m)`` tensor including dangling fibres.

        Intended for tests and tiny examples only.
        """
        n = self._n
        dense = np.full((n, n, self._m), 0.0)
        coo = self._stacked.tocoo()
        k, i = np.divmod(coo.row, n)
        dense[i, coo.col, k] = coo.data
        k, j = np.nonzero(self._nd_indicator.toarray() == 0)
        dense[:, j, k] = 1.0 / n
        return dense


class RelationTransitionTensor(_StackedSlices):
    """The relation-transition tensor ``R`` of Eq. 2, with implicit dangling mass.

    Stores the normalised slices ``B_k`` (``B_k[i, j] = R[i, j, k]``) and
    an ``(n, n)`` indicator of the linked ``(i, j)`` pairs as one
    ``((m+1)*n, n)`` stack, so the per-relation reductions and the
    uniform ``1/m`` correction for unlinked pairs share one sparse
    product — no ``(nnz, q)`` gather temporary.  In memory each walked
    block is the :func:`product_operand` of its rows.
    """

    __slots__ = ("_empty",)

    def __init__(self, tensor: SparseTensor3):
        n, _, m = tensor.shape
        i, j, k = tensor.coords
        linked, norm_values = normalise_fibres(j * n + i, tensor.values)
        # Block k holds B_k (z_k is the bilinear form x^T (B_k @ y)) and
        # block m the pair indicator; temporaries are freed as soon as used
        # to keep the build's peak memory low.
        slices = _stack_slices(norm_values, i, j, k, n, m)
        del norm_values
        pair_j, pair_i = np.divmod(linked, n)
        pairs = sp.csr_matrix((np.ones(linked.size), (pair_i, pair_j)), shape=(n, n))
        del linked, pair_i, pair_j
        self._adopt(sp.vstack((slices, pairs), format="csr"), m)

    @classmethod
    def from_stack(
        cls, stacked, m: int, *, chunk_size: int | None = None
    ) -> "RelationTransitionTensor":
        """``R`` over a normalised ``((m+1)*n, n)`` stack, pair indicator
        last; ``chunk_size`` rows per walked block when the stack is
        memory-mapped (:class:`RowWalk`)."""
        tensor = cls.__new__(cls)
        tensor._adopt(stacked, m, chunk_size)
        return tensor

    def _adopt(self, stacked, m: int, chunk_size=None) -> None:
        """Take a normalised ``((m+1)*n, n)`` stack, pair indicator last."""
        self._n, self._m = stacked.shape[1], m
        self._walk_stack(stacked, chunk_size)
        self._empty = np.flatnonzero(np.array(self.relation_nnz) == 0)

    def _index(self, rows: sp.csr_matrix):
        """A walked block of rows, copied to CSC by :func:`product_operand`
        in memory only: a memory-mapped block would pay ``O(n)`` per copy."""
        return rows if self._chunk_size else product_operand(rows)

    @property
    def layout(self) -> str:
        """How the product walks the whole stack: ``"columns"`` when it
        runs through a CSC copy, else ``"rows"``."""
        whole = self._kept.get((0, self._n))
        return "columns" if whole is not None and whole.format == "csc" else "rows"

    @property
    def n_linked_pairs(self) -> int:
        """Number of ``(i, j)`` pairs connected by at least one relation."""
        indptr = self._stacked.indptr
        return int(indptr[-1] - indptr[self._m * self._n])

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

    def pair_rows(self, start: int, stop: int) -> sp.csr_matrix:
        """Rows ``[start, stop)`` of the linked-pair indicator."""
        offset = self._m * self._n
        return self._stacked[offset + start:offset + stop]

    def integrands(self, X: np.ndarray, Y: np.ndarray, block) -> np.ndarray:
        """The Eq. 8 integrands ``X * (B_k @ Y)``, block ``m`` the pair indicator's.

        Rows ``[a, b)`` of them, for a block ``(a, b, block)`` of
        :meth:`row_walk`, ``X`` those rows and ``Y`` the full ``(n, q)``
        input.  One C-contiguous copy serves both operands when ``X``
        is ``Y``.  Inputs are not validated.
        """
        y = np.ascontiguousarray(Y)
        products = block @ y
        products = products.reshape(self._m + 1, -1, Y.shape[1])
        products *= y if X is Y else np.ascontiguousarray(X)
        return products

    def contract(self, integrands: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Finish Eq. 8 from the full ``(m+1, n, q)`` :meth:`integrands`.

        Row ``k`` is the per-column sum of block ``k`` (``0.0`` for an
        empty relation), plus the ``1/m`` share of the mass the linked
        pairs (block ``m``) do not cover.
        """
        sums = _column_sums(integrands)
        result, linked_mass = sums[: self._m], sums[self._m]
        result[self._empty] = 0.0
        result += _unlinked_mass(X, Y, linked_mass) / self._m
        return result

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
        bilinear form ``X[:, c]^T (B_k @ Y[:, c])`` plus the
        unlinked-pair ``1/m`` correction computed the same way from the
        pair indicator — one stacked sparse product per walked block.
        """
        X = check_array_2d(X, "X", shape=(self._n, None))
        Y = X if Y is None else check_array_2d(Y, "Y", shape=(self._n, X.shape[1]))
        y = np.ascontiguousarray(Y)
        x = y if X is Y else X
        integrands = None
        for a, b, block in self.row_walk(0, self._n):
            rows = self.integrands(x[a:b], y, block)
            if b - a == self._n:  # one block holds every row: taken as is
                integrands = rows
                continue
            if integrands is None:
                integrands = np.empty((self._m + 1, self._n, X.shape[1]))
            integrands[:, a:b] = rows
        return self.contract(integrands, X, Y)

    def to_dense(self) -> np.ndarray:
        """Materialise the full ``(n, n, m)`` tensor including dangling fibres.

        Intended for tests and tiny examples only.
        """
        n, m = self._n, self._m
        dense = np.full((n, n, m), 1.0 / m)
        coo = self._stacked.tocoo()
        k, i = np.divmod(coo.row, n)
        linked = k == m
        dense[i[linked], coo.col[linked], :] = 0.0
        dense[i[~linked], coo.col[~linked], k[~linked]] = coo.data[~linked]
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

