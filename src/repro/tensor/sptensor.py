"""A sparse 3-way tensor in coordinate (COO) format.

:class:`SparseTensor3` stores the HIN adjacency tensor ``A`` of the paper
(section 3.1): shape ``(n, n, m)`` with ``A[i, j, k]`` the weight of the
link from node ``j`` to node ``i`` through relation ``k``.  Only non-zero
entries are stored, which matters because real HINs have ``nnz`` in the
tens of thousands while ``n^2 * m`` is astronomically larger.

The class is immutable after construction; duplicate coordinates are summed
on construction (standard COO semantics).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import scipy.sparse as sp

from repro.errors import ShapeError, ValidationError


def normalise_fibres(
    pair_ids: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Divide every entry by its ``(i, j)`` fibre sum over the relations (Eq. 2).

    ``pair_ids`` holds each entry's flat pair id ``j*n + i`` (mode-3
    column order) and ``values`` its raw weight.  Returns the sorted
    unique ids of the linked pairs and the normalised values, in input
    order.  Only linked pairs get a sum — the unlinked ones carry the
    implicit uniform ``1/m`` — so memory is ``O(nnz)``, never ``O(n^2)``.
    ``bincount`` adds each fibre's entries in input order, the same
    additions a dense ``minlength=n*n`` reduction would make.
    """
    linked, inverse = np.unique(pair_ids, return_inverse=True)
    sums = np.bincount(inverse, weights=values)
    return linked, values / sums[inverse]


class SparseTensor3:
    """Immutable sparse tensor of shape ``(n, n, m)``.

    Parameters
    ----------
    i, j, k:
        Integer coordinate arrays of equal length.  ``i`` and ``j`` index
        nodes (``0 <= i, j < n``); ``k`` indexes relations
        (``0 <= k < m``).
    values:
        Non-negative entry values; ``None`` means all ones (unweighted
        links, the paper's setting).
    shape:
        The tuple ``(n, n, m)``.

    Notes
    -----
    Duplicate ``(i, j, k)`` coordinates are summed.  Entries that sum to
    zero are dropped.  The stored entries are sorted by ``(k, j, i)``
    (mode-1 column order), so each relation is one contiguous run and
    each ``(j, k)`` column a contiguous run inside it; the ``O`` / ``R``
    builds and ``repro.stream.delta.resolve_batch`` rely on that order.
    """

    __slots__ = ("_i", "_j", "_k", "_values", "_n", "_m")

    def __init__(self, i, j, k, values=None, *, shape: tuple[int, int, int]):
        if len(shape) != 3 or shape[0] != shape[1]:
            raise ShapeError(
                f"shape must be (n, n, m) with equal first axes, got {shape}"
            )
        n, _, m = (int(s) for s in shape)
        if n <= 0 or m <= 0:
            raise ShapeError(f"shape axes must be positive, got {shape}")

        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        k = np.asarray(k, dtype=np.int64)
        if not (i.shape == j.shape == k.shape) or i.ndim != 1:
            raise ShapeError("i, j, k must be 1-D arrays of equal length")
        if values is None:
            values = np.ones(i.size, dtype=float)
        else:
            values = np.asarray(values, dtype=float)
            if values.shape != i.shape:
                raise ShapeError("values must match the coordinate arrays in length")
        if i.size:
            if i.min(initial=0) < 0 or i.max(initial=0) >= n:
                raise ValidationError(f"i coordinates out of range [0, {n})")
            if j.min(initial=0) < 0 or j.max(initial=0) >= n:
                raise ValidationError(f"j coordinates out of range [0, {n})")
            if k.min(initial=0) < 0 or k.max(initial=0) >= m:
                raise ValidationError(f"k coordinates out of range [0, {m})")
        if np.any(values < 0) or not np.all(np.isfinite(values)):
            raise ValidationError("tensor values must be finite and non-negative")

        # Coalesce duplicates by flattening to a single linear index.
        flat = (k * n + j) * n + i
        order = np.argsort(flat, kind="stable")
        flat = flat[order]
        values = values[order]
        if flat.size:
            unique_flat, inverse = np.unique(flat, return_inverse=True)
            summed = np.bincount(inverse, weights=values)
            keep = summed > 0
            unique_flat = unique_flat[keep]
            summed = summed[keep]
        else:
            unique_flat = flat
            summed = values

        self._i = (unique_flat % n).astype(np.int64)
        rest = unique_flat // n
        self._j = (rest % n).astype(np.int64)
        self._k = (rest // n).astype(np.int64)
        self._values = summed.astype(float)
        for arr in (self._i, self._j, self._k, self._values):
            arr.setflags(write=False)
        self._n = n
        self._m = m

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_slices(cls, slices: Iterable, n: int | None = None) -> "SparseTensor3":
        """Build a tensor from per-relation adjacency matrices.

        ``slices`` is an iterable of ``(n, n)`` arrays or scipy sparse
        matrices; slice ``k`` becomes the frontal slice ``A[:, :, k]``
        (entry convention: ``slice[i, j]`` = weight of link ``j -> i``).
        """
        mats = [sp.coo_matrix(s) for s in slices]
        if not mats:
            raise ShapeError("at least one slice is required")
        inferred = mats[0].shape[0]
        n = inferred if n is None else int(n)
        for idx, mat in enumerate(mats):
            if mat.shape != (n, n):
                raise ShapeError(
                    f"slice {idx} has shape {mat.shape}, expected ({n}, {n})"
                )
        i = np.concatenate([m.row for m in mats]) if mats else np.empty(0, int)
        j = np.concatenate([m.col for m in mats])
        k = np.concatenate(
            [np.full(m.nnz, idx, dtype=np.int64) for idx, m in enumerate(mats)]
        )
        values = np.concatenate([m.data for m in mats])
        return cls(i, j, k, values, shape=(n, n, len(mats)))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int, int]:
        """The tensor shape ``(n, n, m)``."""
        return (self._n, self._n, self._m)

    @property
    def n_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def n_relations(self) -> int:
        """Number of link types ``m``."""
        return self._m

    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries."""
        return self._values.size

    @property
    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coordinate arrays ``(i, j, k)`` (read-only views).

        Sorted by ``(k, j, i)``, with no repeated coordinate.
        """
        return self._i, self._j, self._k

    @property
    def values(self) -> np.ndarray:
        """The non-zero entry values (read-only view)."""
        return self._values

    def __repr__(self) -> str:
        return (
            f"SparseTensor3(shape=({self._n}, {self._n}, {self._m}), "
            f"nnz={self.nnz})"
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseTensor3):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self._i, other._i)
            and np.array_equal(self._j, other._j)
            and np.array_equal(self._k, other._k)
            and np.allclose(self._values, other._values)
        )

    def __hash__(self):  # pragma: no cover - explicit unhashability
        raise TypeError("SparseTensor3 is not hashable")

    # ------------------------------------------------------------------
    # Views and conversions
    # ------------------------------------------------------------------
    def relation_slice(self, k: int) -> sp.csr_matrix:
        """Return frontal slice ``A[:, :, k]`` as a CSR matrix.

        Entry ``[i, j]`` is the weight of the link ``j -> i`` through
        relation ``k``.
        """
        if not 0 <= k < self._m:
            raise ValidationError(f"relation index {k} out of range [0, {self._m})")
        mask = self._k == k
        return sp.csr_matrix(
            (self._values[mask], (self._i[mask], self._j[mask])),
            shape=(self._n, self._n),
        )

    def relation_slices(self) -> list[sp.csr_matrix]:
        """Return all ``m`` frontal slices (see :meth:`relation_slice`)."""
        return [self.relation_slice(k) for k in range(self._m)]

    def aggregate_relations(self) -> sp.csr_matrix:
        """Sum the tensor over its relation axis into one ``(n, n)`` matrix.

        This is the "merge all link types" operation used by the ICA
        baseline (section 6 of the paper).
        """
        return sp.csr_matrix(
            (self._values, (self._i, self._j)), shape=(self._n, self._n)
        )

    def unfold(self, mode: int) -> sp.csr_matrix:
        """Matricize the tensor along ``mode`` (1 or 3, as in section 3.2).

        * mode 1: shape ``(n, n*m)``; column ``k*n + j`` holds fibre
          ``A[:, j, k]`` — the layout of the paper's ``A_(1)`` example.
        * mode 3: shape ``(m, n*n)``; column ``j*n + i`` holds fibre
          ``A[i, j, :]`` — the layout of the paper's ``A_(3)`` example.
        """
        if mode == 1:
            cols = self._k * self._n + self._j
            return sp.csr_matrix(
                (self._values, (self._i, cols)),
                shape=(self._n, self._n * self._m),
            )
        if mode == 3:
            cols = self._j * self._n + self._i
            return sp.csr_matrix(
                (self._values, (self._k, cols)),
                shape=(self._m, self._n * self._n),
            )
        raise ValidationError(f"mode must be 1 or 3, got {mode}")

    def to_dense(self) -> np.ndarray:
        """Materialise the full dense ``(n, n, m)`` array (small tensors only)."""
        dense = np.zeros(self.shape)
        dense[self._i, self._j, self._k] = self._values
        return dense

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def mode1_column_sums(self) -> np.ndarray:
        """Sums over ``i`` for every ``(j, k)`` fibre, as a flat ``n*m`` array.

        Index ``k*n + j`` (mode-1 column order).  Zero entries mark the
        dangling columns that Eq. 1 replaces with the uniform 1/n.
        """
        cols = self._k * self._n + self._j
        # ``astype`` copies nothing here; it only keeps an empty tensor's
        # sums float (``bincount`` returns int64 for an empty input).
        return np.bincount(
            cols, weights=self._values, minlength=self._n * self._m
        ).astype(float, copy=False)

    def transpose_nodes(self) -> "SparseTensor3":
        """Swap the two node axes (reverse every link's direction)."""
        return SparseTensor3(
            self._j, self._i, self._k, self._values, shape=self.shape
        )

