"""Streaming propagation over memory-mapped chunked operators.

The classes here mirror the contraction surface of
:class:`~repro.tensor.transition.NodeTransitionTensor`,
:class:`~repro.tensor.transition.RelationTransitionTensor` and the
feature-walk matrix ``W`` — ``propagate_many``, ``shape``,
``dangling_share`` / ``unlinked_share``, ``@`` — but never hold a whole
operator in RAM.  Each per-iteration product walks the on-disk CSC
arrays (built by :mod:`repro.ooc.build`) in column blocks of
``chunk_size``: a block is wrapped as a zero-copy ``scipy`` CSC matrix
over the memmap slices, multiplied, accumulated, and its pages released
with ``madvise(MADV_DONTNEED)`` so resident memory stays at
``O(nnz / n_chunks)`` plus the ``(n, q)`` iterate matrices regardless of
graph size.

The dangling/unlinked corrections are the in-RAM tensors' closed-form
helpers (``repro.tensor.transition``), applied by ``finish``, so
store-backed fits agree with the in-memory path to accumulation-order
rounding — argmax-identical on every graph the equivalence tests
cover.  Bit-identity is *not* promised for propagation (the chunked
products accumulate in a different order); it *is* promised for the
normalised operator values on disk, which :mod:`repro.ooc.build` pins
against the in-RAM build.
"""

from __future__ import annotations

import mmap

import numpy as np
import scipy.sparse as sp

from repro.tensor.transition import _column_sums, _uncovered_mass, _unlinked_mass
from repro.utils.validation import check_array_2d

#: Default number of CSC columns processed per chunk.
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


def _csc_block(data, indices, indptr, j0: int, j1: int, n_rows: int):
    """Columns ``[j0, j1)`` of an on-disk CSC as a zero-copy scipy matrix.

    Returns ``None`` for an empty block.  Only the (small) local
    ``indptr`` is copied; ``data``/``indices`` stay memmap slices.
    ``data=None`` is a pattern-only matrix whose values are ones.
    """
    start = int(indptr[j0])
    stop = int(indptr[j1])
    if start == stop:
        return None
    local_indptr = np.asarray(indptr[j0 : j1 + 1], dtype=np.int64) - start
    values = np.ones(stop - start) if data is None else data[start:stop]
    return sp.csc_matrix(
        (values, indices[start:stop], local_indptr), shape=(n_rows, j1 - j0)
    )


def _column_blocks(start: int, stop: int, chunk: int):
    """``(j0, j1)`` column blocks of width ``chunk`` tiling ``[start, stop)``."""
    for j0 in range(start, stop, chunk):
        yield j0, min(j0 + chunk, stop)


def _add_block_products(out, data, indices, indptr, X, start: int, stop: int,
                        chunk: int) -> np.ndarray:
    """``out += A[:, start:stop] @ X[start:stop]``, one column block at a time.

    ``A`` is an on-disk CSC given as ``data`` / ``indices`` / ``indptr``
    (see :func:`_csc_block`); returns ``out``.
    """
    for j0, j1 in _column_blocks(start, stop, chunk):
        block = _csc_block(data, indices, indptr, j0, j1, out.shape[0])
        if block is not None:
            out += block @ X[j0:j1]
    return out


class _ChunkedSlices:
    """Per-relation normalised slices as mmap'd CSC arrays, loaded lazily.

    Each relation's ``data`` lives in the operator cache and its
    ``indices`` / ``indptr`` in the store (``store_arrays(k)``).
    """

    def __init__(self, data_files, store_arrays, *, n: int, m: int,
                 chunk_size: int = DEFAULT_CHUNK_SIZE):
        self._data_files = list(data_files)  # per-relation normalised-data paths
        self._store_arrays = store_arrays    # k -> (indices, indptr) accessor
        self._n = int(n)
        self._m = int(m)
        self._chunk = int(chunk_size)
        self._data = [None] * self._m

    def _relation(self, k: int):
        if self._data[k] is None:
            self._data[k] = np.load(self._data_files[k], mmap_mode="r")
        indices, indptr = self._store_arrays(k)
        return self._data[k], indices, indptr

    @property
    def shape(self) -> tuple[int, int, int]:
        """Logical tensor shape ``(n, n, m)``."""
        return (self._n, self._n, self._m)

    @property
    def chunk_size(self) -> int:
        """Columns per streamed block."""
        return self._chunk

    def column_nnz(self) -> np.ndarray:
        """Per-column stored-entry counts summed over the relation slices.

        The balanced-nnz shard planner's column weights — computed from
        the (small) ``indptr`` arrays only, never touching the data.
        """
        weights = np.zeros(self._n, dtype=np.int64)
        for k in range(self._m):
            _, _, indptr = self._relation(k)
            weights += np.diff(np.asarray(indptr, dtype=np.int64))
        return weights


class ChunkedNodeTransition(_ChunkedSlices):
    """Out-of-core ``O`` of Eq. 1: per-relation mmap'd CSC + dangling mask.

    ``propagate_many(X, Z)`` computes ``sum_k Z[k] * (M_k @ X)`` by
    streaming each normalised relation slice in column blocks, then adds
    the analytic uniform ``1/n`` mass of the dangling ``(j, k)`` columns
    exactly as the in-RAM tensor does.
    """

    def __init__(self, data_files, store_arrays, nondangling, *, n: int, m: int,
                 chunk_size: int = DEFAULT_CHUNK_SIZE):
        super().__init__(data_files, store_arrays, n=n, m=m, chunk_size=chunk_size)
        self._nondangling = nondangling      # (m, n) bool memmap

    @property
    def n_dangling(self) -> int:
        """Number of dangling ``(j, k)`` columns (uniform 1/n fibres)."""
        total = 0
        for k in range(self._m):
            total += int(np.asarray(self._nondangling[k]).sum())
        return self._n * self._m - total

    @property
    def dangling_share(self) -> float:
        """Fraction of the ``n * m`` mode-1 columns that are dangling."""
        return self.n_dangling / (self._n * self._m)

    def column_partial(self, X, Z, start: int, stop: int):
        """Columns ``[start, stop)`` of the contraction, before the dangling mass.

        Returns ``(partial, covered)``: the ``(n, q)`` sum
        ``sum_k Z[k] * (M_k[:, start:stop] @ X[start:stop])`` and the
        ``(m, q)`` mass of ``X[start:stop]`` on each relation's
        non-dangling columns.  Chunks start at ``start``, so the full
        range is exactly :meth:`propagate_many`'s walk and a sharded
        fit's column workers run the same kernel on their ranges.
        """
        q = X.shape[1]
        result = np.zeros_like(X)
        acc = np.empty_like(X)
        covered = np.empty((self._m, q))
        for k in range(self._m):
            data, indices, indptr = self._relation(k)
            acc[:] = 0.0
            nd_covered = np.zeros(q)
            nd_row = self._nondangling[k]
            for j0, j1 in _column_blocks(start, stop, self._chunk):
                block = _csc_block(data, indices, indptr, j0, j1, self._n)
                if block is not None:
                    acc += block @ X[j0:j1]
                mask = np.asarray(nd_row[j0:j1])
                if mask.any():
                    nd_covered += X[j0:j1][mask].sum(axis=0)
            result += acc * Z[k]
            covered[k] = nd_covered
            release_pages(data, indices, indptr, nd_row)
        return result, covered

    def finish(self, partial, covered, X, Z):
        """Add the dangling ``1/n`` mass to :meth:`column_partial` output
        (or its shard-summed parts) in place."""
        partial += _uncovered_mass(X, Z, covered) / self._n
        return partial

    def propagate_many(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        """Batched ``O x-bar_1 X x-bar_3 Z`` over the mmap'd slices."""
        X = check_array_2d(X, "X", shape=(self._n, None))
        Z = check_array_2d(Z, "Z", shape=(self._m, X.shape[1]))
        return self.finish(*self.column_partial(X, Z, 0, self._n), X, Z)


class ChunkedRelationTransition(_ChunkedSlices):
    """Out-of-core ``R`` of Eq. 2: mmap'd CSC slices + linked-pair pattern.

    ``propagate_many(X, Y)`` evaluates the per-relation bilinear forms
    ``column_sums(X * (B_k @ Y))`` chunk by chunk and adds the uniform
    ``1/m`` mass of the unlinked pairs via the on-disk pair-indicator
    pattern (indices/indptr only; the implicit values are ones).
    """

    def __init__(self, data_files, store_arrays, pair_files, *, n: int, m: int,
                 n_linked_pairs: int, chunk_size: int = DEFAULT_CHUNK_SIZE):
        super().__init__(data_files, store_arrays, n=n, m=m, chunk_size=chunk_size)
        self._pair_files = tuple(pair_files)  # (indices_path, indptr_path)
        self._n_linked = int(n_linked_pairs)
        self._pairs = None

    def _pair_arrays(self):
        if self._pairs is None:
            self._pairs = (
                np.load(self._pair_files[0], mmap_mode="r"),
                np.load(self._pair_files[1], mmap_mode="r"),
            )
        return self._pairs

    def column_nnz(self) -> np.ndarray:
        """Per-column entry counts over relation slices + pair pattern."""
        weights = super().column_nnz()
        _, pair_indptr = self._pair_arrays()
        weights += np.diff(np.asarray(pair_indptr, dtype=np.int64))
        return weights

    @property
    def n_linked_pairs(self) -> int:
        """Number of ``(i, j)`` pairs connected by at least one relation."""
        return self._n_linked

    @property
    def unlinked_share(self) -> float:
        """Fraction of the ``n^2`` node pairs with no relation at all."""
        return 1.0 - self._n_linked / (self._n * self._n)

    def column_partial(self, X, Y, start: int, stop: int):
        """Columns ``[start, stop)`` of the bilinear forms, before the unlinked mass.

        Returns ``(partial, linked)``: the ``(m, q)`` per-relation
        ``column_sums(X * (B_k[:, start:stop] @ Y[start:stop]))`` (zero
        rows for empty relations) and the ``(q,)`` linked-pair mass over
        the same columns.  Chunks start at ``start``, so the full range
        is exactly :meth:`propagate_many`'s walk and a sharded fit's
        column workers run the same kernel on their ranges.
        """
        result = np.zeros((self._m, X.shape[1]))
        acc = np.empty_like(X)
        for k in range(self._m):
            data, indices, indptr = self._relation(k)
            if data.size == 0:
                continue
            acc[:] = 0.0
            _add_block_products(acc, data, indices, indptr, Y, start, stop, self._chunk)
            result[k] = _column_sums(X * acc)
            release_pages(data, indices, indptr)
        pair_indices, pair_indptr = self._pair_arrays()
        acc[:] = 0.0
        _add_block_products(
            acc, None, pair_indices, pair_indptr, Y, start, stop, self._chunk
        )
        release_pages(pair_indices, pair_indptr)
        return result, _column_sums(X * acc)

    def finish(self, partial, linked, X, Y):
        """Add the unlinked ``1/m`` mass to :meth:`column_partial` output
        (or its shard-summed parts) in place."""
        partial += _unlinked_mass(X, Y, linked) / self._m
        return partial

    def propagate_many(
        self, X: np.ndarray, Y: np.ndarray | None = None
    ) -> np.ndarray:
        """Batched ``R x-bar_1 X x-bar_2 Y`` over the mmap'd slices."""
        X = check_array_2d(X, "X", shape=(self._n, None))
        Y = X if Y is None else check_array_2d(Y, "Y", shape=(self._n, X.shape[1]))
        return self.finish(*self.column_partial(X, Y, 0, self._n), X, Y)


class ChunkedFeatureWalk:
    """Out-of-core feature-walk matrix ``W`` supporting ``W @ X``.

    Two storage modes (see :mod:`repro.ooc.build`): ``dense`` — a single
    mmap'd ``(n, n)`` array built by the exact in-RAM Eq. 9 code (small
    stores only, values bit-identical) — and ``csc`` — the chunked top-k
    cosine matrix streamed column-block by column-block like the
    transition slices.
    """

    def __init__(self, mode: str, files, *, n: int,
                 chunk_size: int = DEFAULT_CHUNK_SIZE):
        self._mode = mode
        self._files = files
        self._n = int(n)
        self._chunk = int(chunk_size)
        self._arrays = None

    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape ``(n, n)``."""
        return (self._n, self._n)

    @property
    def mode(self) -> str:
        """Storage mode: ``"dense"`` or ``"csc"``."""
        return self._mode

    def _load(self):
        if self._arrays is None:
            if self._mode == "dense":
                self._arrays = (np.load(self._files[0], mmap_mode="r"),)
            else:
                self._arrays = tuple(
                    np.load(path, mmap_mode="r") for path in self._files
                )
        return self._arrays

    def column_partial(self, X, start: int, stop: int) -> np.ndarray:
        """Columns ``[start, stop)`` of the walk: ``W[:, start:stop] @ X[start:stop]``.

        Chunks (csc mode) start at ``start``, so the full range is
        exactly ``W @ X`` and a sharded fit's column workers run the
        same kernel on their ranges.
        """
        if self._mode == "dense":
            (w,) = self._load()
            result = w[:, start:stop] @ X[start:stop]
            release_pages(w)
            return result
        data, indices, indptr = self._load()
        result = _add_block_products(
            np.zeros_like(X), data, indices, indptr, X, start, stop, self._chunk
        )
        release_pages(data, indices, indptr)
        return result

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        X = check_array_2d(X, "X", shape=(self._n, None))
        return self.column_partial(X, 0, self._n)


class ChunkedOperators:
    """The out-of-core counterpart of :class:`repro.core.tmark.TMarkOperators`.

    Duck-types the operator triple :meth:`TMark.fit_operators` consumes
    (``o_tensor`` / ``r_tensor`` / ``w_matrix`` / ``shape`` /
    similarity settings), with every product streaming over the store's
    memmap'd arrays.  Build with
    :func:`repro.ooc.build.build_chunked_operators`.
    """

    def __init__(self, *, o_tensor, r_tensor, w_matrix, shape,
                 similarity_top_k, similarity_metric, chunk_size, directory):
        self.o_tensor = o_tensor
        self.r_tensor = r_tensor
        self.w_matrix = w_matrix
        self.shape = tuple(shape)  # (n_nodes, n_relations)
        self.similarity_top_k = similarity_top_k
        self.similarity_metric = similarity_metric
        self.chunk_size = int(chunk_size)
        self.directory = directory

    def __repr__(self) -> str:
        w_mode = self.w_matrix.mode if self.w_matrix is not None else "none"
        return (
            f"ChunkedOperators(shape={self.shape}, chunk_size={self.chunk_size}, "
            f"w={w_mode!r}, directory={str(self.directory)!r})"
        )
