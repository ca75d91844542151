"""Shard planning: contiguous balanced-nnz partitions of the node set.

A :class:`ShardPlan` splits the node axis into K contiguous ranges so a
fit can advance all per-class chains shard by shard in fork workers
(:mod:`repro.shard.engine`).  Shard ``s`` owns output rows
``[start, stop)`` of every per-iteration product; the planner balances
the summed per-row stored-entry counts of the O/R stacks (plus the
feature-walk matrix when sparse), because a row's propagation cost is
proportional to its entries.  CSR row blocks reproduce the
corresponding rows of the full products bit-for-bit, which is what
lets the engine promise bit-identical scores for *any* shard count.
In-memory and store-backed operators (:mod:`repro.ooc`) are planned
alike: both are the same stacked CSR, the latter memory-mapped.

The *halo* of a shard is the set of node indices outside its own range
that its operator blocks reference — the rows of ``x`` that must cross
the shard boundary each iteration.  The engine ships them through
shared memory, so the halo is what sizes the per-iteration
``boundary_exchange`` telemetry rather than an explicit copy loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError
from repro.tensor.transition import RowWalk
from repro.utils.validation import check_positive_int

@dataclass(frozen=True, eq=False)
class Shard:
    """One contiguous node range owned by a worker.

    Attributes
    ----------
    index:
        Position in the plan; also the merge order of this shard's
        contributions (the fixed-order merge the determinism contract
        rests on).
    start, stop:
        The half-open node range ``[start, stop)``.
    nnz:
        Summed stored-entry count of the shard's operator rows — the
        load-balance weight it was placed by.
    halo:
        Sorted node indices outside ``[start, stop)`` that this shard's
        operator blocks read.
    """

    index: int
    start: int
    stop: int
    nnz: int
    halo: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        """Number of nodes in the shard."""
        return self.stop - self.start

    @property
    def halo_size(self) -> int:
        """Number of boundary rows this shard reads from other shards."""
        return int(self.halo.size)


@dataclass(frozen=True)
class ShardPlan:
    """A full partition of the node axis into contiguous shards."""

    n: int
    m: int
    shards: tuple[Shard, ...]

    @property
    def n_shards(self) -> int:
        """Number of shards (may be below the requested K on tiny graphs)."""
        return len(self.shards)

    @property
    def halo_total(self) -> int:
        """Summed halo sizes — the per-iteration boundary-exchange rows."""
        return sum(shard.halo_size for shard in self.shards)

    @property
    def boundaries(self) -> tuple[int, ...]:
        """The ``n_shards + 1`` partition boundaries, ``0 .. n``."""
        return tuple(s.start for s in self.shards) + (self.n,)


def _balanced_boundaries(weights: np.ndarray, n_parts: int) -> np.ndarray:
    """Contiguous boundaries splitting ``weights`` into balanced prefix sums.

    Returns a strictly increasing int array ``[0, ..., n]`` with at most
    ``n_parts`` parts; degenerate targets (empty ranges from skewed
    weights) are dropped rather than padded, so every returned shard is
    non-empty.
    """
    n = int(weights.size)
    n_parts = min(n_parts, n)
    cum = np.cumsum(weights, dtype=np.float64)
    total = float(cum[-1]) if n else 0.0
    if total > 0.0:
        targets = total * np.arange(1, n_parts) / n_parts
        inner = np.searchsorted(cum, targets, side="left") + 1
        bounds = np.concatenate(([0], inner, [n]))
    else:
        bounds = np.linspace(0, n, n_parts + 1).round().astype(np.int64)
    bounds = np.minimum(np.maximum.accumulate(bounds), n)
    return np.unique(bounds)


def _row_halo(start: int, stop: int, blocks, n: int) -> np.ndarray:
    """Out-of-range node indices referenced by a shard's CSR row blocks.

    Sorted int64.  Marks the referenced columns in a length-``n`` mask,
    which is linear in the blocks' entries where sorting them is not.
    """
    seen = np.zeros(n, dtype=bool)
    for block in blocks:
        if sp.issparse(block):
            seen[block.indices] = True
        elif block is not None:
            # Dense feature-walk rows read every node.
            seen[:] = True
            break
    seen[start:stop] = False
    return np.flatnonzero(seen).astype(np.int64, copy=False)


def plan_shards(o_tensor, r_tensor, w_matrix, n_shards: int) -> ShardPlan:
    """Partition the node axis of an operator triple into ``n_shards``.

    ``o_tensor`` / ``r_tensor`` are stacked-CSR tensors (exposing
    ``row_blocks`` and ``row_nnz``), in memory or store-backed;
    ``w_matrix`` is the feature walk the workers apply (a sparse matrix
    or its :class:`~repro.tensor.transition.RowWalk`, or dense), or
    ``None``.  The returned plan may hold fewer shards than requested
    when the graph is too small to fill them.
    """
    n_shards = check_positive_int(n_shards, "shards")
    if not (hasattr(o_tensor, "row_blocks") and hasattr(o_tensor, "row_nnz")):
        raise ValidationError(
            "cannot plan shards: the O operator exposes neither row_blocks "
            f"nor row_nnz (a stacked-CSR tensor); got {type(o_tensor).__name__}"
        )
    n = o_tensor.shape[0]
    m = o_tensor.shape[2]
    if sp.issparse(w_matrix):
        w_matrix = RowWalk(w_matrix.tocsr())
    walked, dense_w = [o_tensor, r_tensor], None
    if isinstance(w_matrix, RowWalk):
        walked.append(w_matrix)
    elif w_matrix is not None:
        dense_w = np.asarray(w_matrix)
    weights = sum(operator.row_nnz() for operator in walked)
    # Every row carries at least unit weight so all-dangling stretches
    # still spread across shards instead of collapsing into one.
    weights = weights + 1
    bounds = _balanced_boundaries(weights, n_shards)
    shards = []
    for index, (start, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        start, stop = int(start), int(stop)
        blocks = [b for op in walked for b in op.row_blocks(start, stop)]
        blocks.append(r_tensor.pair_rows(start, stop))
        if dense_w is not None:
            blocks.append(dense_w[start:stop])
        shards.append(Shard(
            index=index,
            start=start,
            stop=stop,
            nnz=int(weights[start:stop].sum() - (stop - start)),
            halo=_row_halo(start, stop, blocks, n),
        ))
    return ShardPlan(n=n, m=m, shards=tuple(shards))
