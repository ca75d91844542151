"""Store-backed operators: the in-memory kernels over memory-mapped stacks.

The operator cache (built by :mod:`repro.ooc.build`) holds ``O`` and
``R`` in exactly the layout of the in-RAM
:class:`~repro.tensor.transition.NodeTransitionTensor` /
:class:`~repro.tensor.transition.RelationTransitionTensor` — one
row-stacked CSR each, as ``indptr`` / ``indices`` / ``data`` ``.npy``
files — and the top-k ``W`` as a CSR too.  The classes here are those
tensors (and that CSR) over memory-mapped arrays; only
``propagate_many`` / ``@`` differ: they walk the rows in blocks of
``chunk_size``, run the in-memory kernels (``relation_sum``,
``integrands``) on each block's ``row_stack`` and write its rows into
the output, releasing the block's pages with ``madvise(MADV_DONTNEED)``.
Resident memory stays at one block plus the ``(n, q)`` iterates (and
``R``'s ``(m+1, n, q)`` integrands, whose column sums run over all
rows) regardless of graph size.  ``R``'s blocks are always multiplied
by rows: the in-memory ``R``'s CSC copy of a mostly empty stack is
never made here.

A CSR row's product depends only on that row's entries, and the closed
forms (``dangling_mass``, ``contract``) are the in-memory tensors' own,
so a store-backed fit is byte-identical to the in-memory fit over the
same operators.
"""

from __future__ import annotations

import mmap

import numpy as np
import scipy.sparse as sp

from repro.tensor.transition import NodeTransitionTensor, RelationTransitionTensor
from repro.utils.validation import check_array_2d

#: Default number of rows per streamed block.
DEFAULT_CHUNK_SIZE = 65536


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


def load_csr(directory, prefix: str, n_rows: int, n_cols: int) -> sp.csr_matrix:
    """The CSR in ``<prefix>.{data,indices,indptr}.npy``, memory-mapped."""
    arrays = (
        np.load(directory / f"{prefix}.{name}.npy", mmap_mode="r")
        for name in ("data", "indices", "indptr")
    )
    return sp.csr_matrix(tuple(arrays), shape=(n_rows, n_cols), copy=False)


def _walk_rows(matrix, block, start: int, stop: int, chunk: int):
    """``(a, b, block(a, b))`` for ``chunk``-row blocks tiling ``[start, stop)``.

    ``matrix``'s mapped pages are released once the consumer is done
    with each block, so only one block is ever resident.
    """
    for a in range(start, stop, chunk):
        b = min(a + chunk, stop)
        yield a, b, block(a, b)
        release_pages(matrix.indptr, matrix.indices, matrix.data)


class _StoredStack:
    """An ``O`` / ``R`` stack over memory-mapped arrays, walked by rows."""

    __slots__ = ()

    def row_walk(self, start: int, stop: int):
        """``(a, b, self.row_stack(a, b))`` in ``chunk_size``-row blocks."""
        return _walk_rows(self._stacked, self.row_stack, start, stop, self.chunk_size)


class StoredNodeTransition(_StoredStack, NodeTransitionTensor):
    """``O`` over the cache's memory-mapped stack, propagated row block by block."""

    __slots__ = ("chunk_size",)

    def __init__(self, stacked, nondangling: np.ndarray, chunk_size: int):
        self._adopt(stacked, nondangling)
        self.chunk_size = int(chunk_size)

    def _whole_stack_index(self) -> None:
        """None: each row block is indexed as it is walked (``row_stack``),
        so no whole-stack index is ever held in RAM."""
        return None

    def propagate_many(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """:meth:`NodeTransitionTensor.propagate_many`, its relation sum
        computed one row block at a time."""
        X = check_array_2d(X, "X", shape=(self._n, None))
        Z = check_array_2d(Z, "Z", shape=(self._m, X.shape[1]))
        x = np.ascontiguousarray(X)
        result = np.empty_like(X)
        for a, b, stack in self.row_walk(0, self._n):
            result[a:b] = self.relation_sum(x, Z, stack)
        result += self.dangling_mass(X, Z, x) / self._n
        return result


class StoredRelationTransition(_StoredStack, RelationTransitionTensor):
    """``R`` over the cache's memory-mapped stack, its integrands built row
    block by row block."""

    __slots__ = ("chunk_size",)

    def __init__(self, stacked, m: int, chunk_size: int):
        self._adopt(stacked, m)
        self.chunk_size = int(chunk_size)

    def _product_operand(self, stacked):
        """``stacked`` itself: the stack stays out of core, and a CSC copy
        of each walked block would cost ``O(n)`` per block."""
        return stacked

    def propagate_many(
        self, X: np.ndarray, Y: np.ndarray | None = None
    ) -> np.ndarray:
        """:meth:`RelationTransitionTensor.propagate_many`, the ``(m+1, n, q)``
        integrands filled one row block at a time."""
        X = check_array_2d(X, "X", shape=(self._n, None))
        Y = X if Y is None else check_array_2d(Y, "Y", shape=(self._n, X.shape[1]))
        y = np.ascontiguousarray(Y)
        x = y if X is Y else X
        integrands = np.empty((self._m + 1, self._n, X.shape[1]))
        for a, b, stack in self.row_walk(0, self._n):
            integrands[:, a:b] = self.integrands(x[a:b], y, stack)
        return self.contract(integrands, X, Y)


class ChunkedFeatureWalk:
    """The top-k feature-walk matrix ``W`` as a memory-mapped CSR.

    ``W @ X`` walks ``matrix`` in ``chunk_size``-row blocks, so the
    product equals the in-memory CSR's bit for bit.  (A dense cache
    ``W`` — small stores only — is the memory-mapped array itself.)
    """

    def __init__(self, matrix: sp.csr_matrix, chunk_size: int):
        self.matrix = matrix
        self.chunk_size = int(chunk_size)

    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape ``(n, n)``."""
        return self.matrix.shape

    def row_walk(self, start: int, stop: int):
        """``(a, b, matrix[a:b])`` in ``chunk_size``-row blocks."""
        return _walk_rows(
            self.matrix, lambda a, b: self.matrix[a:b], start, stop, self.chunk_size
        )

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        X = check_array_2d(X, "X", shape=(self.shape[1], None))
        x = np.ascontiguousarray(X)
        result = np.empty((self.shape[0], X.shape[1]))
        for a, b, rows in self.row_walk(0, self.shape[0]):
            result[a:b] = rows @ x
        return result

