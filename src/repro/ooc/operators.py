"""Store-backed operators: the in-memory operators over memory-mapped arrays.

The operator cache (built by :mod:`repro.ooc.build`) holds ``O`` and
``R`` in exactly the layout of the in-RAM
:class:`~repro.tensor.transition.NodeTransitionTensor` /
:class:`~repro.tensor.transition.RelationTransitionTensor` — one
row-stacked CSR each, as ``indptr`` / ``indices`` / ``data`` ``.npy``
files — and the top-k ``W`` as a CSR too.  A store-backed ``O`` / ``R``
is that tensor class itself, built over the memory-mapped stack with
``from_stack(..., chunk_size=)``: its row walk
(:class:`~repro.tensor.transition.RowWalk`) streams ``chunk_size``-row
CSR blocks through the in-memory kernels and releases each block's
pages.  Resident memory stays at one block plus the ``(n, q)`` iterates
(and ``R``'s ``(m+1, n, q)`` integrands, whose column sums run over all
rows) regardless of graph size.  A store-backed ``R``'s blocks are
always multiplied by rows: the in-memory ``R``'s CSC copy of a mostly
empty stack is never made here.  :class:`ChunkedFeatureWalk` is the
same walk over the top-k ``W``.

A CSR row's product depends only on that row's entries, and the closed
forms (``dangling_mass``, ``contract``) are the in-memory tensors' own,
so a store-backed fit is byte-identical to the in-memory fit over the
same operators.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.tensor.transition import RowWalk
from repro.utils.validation import check_array_2d

#: Default number of rows per streamed block.
DEFAULT_CHUNK_SIZE = 65536


def load_csr(directory, prefix: str, n_rows: int, n_cols: int) -> sp.csr_matrix:
    """The CSR in ``<prefix>.{data,indices,indptr}.npy``, memory-mapped."""
    arrays = (
        np.load(directory / f"{prefix}.{name}.npy", mmap_mode="r")
        for name in ("data", "indices", "indptr")
    )
    return sp.csr_matrix(tuple(arrays), shape=(n_rows, n_cols), copy=False)


class ChunkedFeatureWalk(RowWalk):
    """The top-k feature-walk matrix ``W`` as a memory-mapped CSR.

    ``W @ X`` walks the matrix in ``chunk_size``-row blocks, so the
    product equals the in-memory CSR's bit for bit.  (A dense cache
    ``W`` — small stores only — is the memory-mapped array itself.)
    """

    __slots__ = ()

    def __init__(self, matrix: sp.csr_matrix, chunk_size: int):
        super().__init__(matrix, int(chunk_size))

    def __matmul__(self, X: np.ndarray) -> np.ndarray:
        X = check_array_2d(X, "X", shape=(self.shape[1], None))
        x = np.ascontiguousarray(X)
        result = np.empty((self.shape[0], X.shape[1]))
        for a, b, rows in self.row_walk(0, self.shape[0]):
            result[a:b] = rows @ x
        return result
