"""The feature-based transition matrix ``W`` (section 4.2, Eq. 9).

``C[i, j] = cos(f_i, f_j)`` is the cosine similarity between node feature
vectors; ``W`` column-normalises ``C`` so each column is a probability
distribution over nodes.  The T-Mark update mixes ``W x`` into the walk
with weight ``beta = gamma * (1 - alpha)``.

Practical details the paper leaves implicit, resolved here:

* negative similarities (possible with signed features) are clipped to
  zero — transition probabilities cannot be negative;
* a node with a zero feature vector has an undefined cosine; its
  similarities are zero and its *column* falls back to the uniform
  distribution, mirroring the dangling convention of Eq. 1;
* dense ``C`` is O(n^2) memory; ``top_k`` keeps only the strongest ``k``
  similarities per column (plus the diagonal) for large networks — an
  ablation bench quantifies the accuracy cost;
* for cosine on non-negative features (the paper's bag-of-words setting)
  no clipping happens, so Eq. 9 factors exactly through the
  row-normalised features ``F̂``: ``W = F̂ F̂ᵀ D⁻¹`` plus a uniform term
  for featureless columns, with ``D = diag(F̂ (F̂ᵀ 1))``.  One shared
  factor applies it: ``W X = F̂ (F̂ᵀ D⁻¹ X) + (1/n) 1 1_zeroᵀ X``, where
  ``1_zero`` marks the featureless nodes, so the rank-``(d + 1)``
  :class:`LowRankMatrix` stores ``F̂`` once (``n d`` floats, not the
  ``2 n (d + 1)`` of two separate factors).
  :func:`feature_walk_matrix` picks it whenever it is cheaper to apply
  than the dense matrix, and :func:`feature_transition_matrix` stays
  the dense reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError
from repro.tensor.transition import RowWalk
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class LowRankMatrix:
    """Eq. 9's cosine ``W`` as one shared factor, applied as ``W @ X``.

    ``W = F̂ F̂ᵀ D⁻¹ + (1/n) 1 1_zeroᵀ`` is held as the unit-row features
    ``F̂`` (``unit``, ``(n, d)``), the inverse column sums ``D⁻¹``
    (``col_scale``, zero on featureless columns) and the featureless
    mask ``1_zero`` (``featureless``).  Both GEMMs of
    ``W X = F̂ (F̂ᵀ (D⁻¹ X)) + (1/n) 1 (1_zeroᵀ X)`` read the same
    ``F̂``, the second while it is still in cache, so ``W`` takes about
    ``n d`` floats and one product costs ``O(n d q)`` instead of
    ``O(n^2 q)``.  ``unit`` is a dense array or a scipy sparse matrix
    (sparse features keep a sparse ``F̂``).  Built by
    :func:`factored_cosine_transition_matrix`.
    """

    unit: np.ndarray
    col_scale: np.ndarray
    featureless: np.ndarray

    def __post_init__(self):
        if self.unit.ndim != 2:
            raise ValidationError("LowRankMatrix unit rows must be 2-D")
        n = self.unit.shape[0]
        for name in ("col_scale", "featureless"):
            shape = np.shape(getattr(self, name))
            if shape != (n,):
                raise ValidationError(f"{name} has shape {shape}, expected ({n},)")

    @property
    def shape(self) -> tuple[int, int]:
        """The shape ``(n, n)`` of the implied dense ``W``."""
        n = self.unit.shape[0]
        return (n, n)

    @property
    def rank(self) -> int:
        """The inner dimension ``d + 1`` of one ``W @ X`` product."""
        return self.unit.shape[1] + 1

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        # D⁻¹ scales the rows of a 1-D or 2-D operand; the transposes
        # keep an F-ordered operand F-ordered.
        scaled = (self.col_scale * other.T).T
        walked = self.unit @ (self.unit.T @ scaled)
        if self.featureless.any():
            walked += (self.featureless @ other) / self.unit.shape[0]
        return walked

    def dense(self) -> np.ndarray:
        """Materialise the dense ``W`` (tests and small matrices only)."""
        unit = self.unit.toarray() if sp.issparse(self.unit) else self.unit
        product = unit @ (unit.T * self.col_scale)
        product[:, self.featureless] += 1.0 / self.unit.shape[0]
        return product


def unit_feature_rows(features):
    """Row-normalised features ``F̂`` and the row norms.

    Rows with zero norm (including ones whose squares underflow) come
    out exactly zero.  Sparse input gives a sparse ``F̂``.
    """
    if sp.issparse(features):
        feats = sp.csr_matrix(features, dtype=float)
        norms = np.sqrt(np.asarray(feats.multiply(feats).sum(axis=1)).ravel())
        safe = np.where(norms > 0, norms, 1.0)
        return sp.diags(np.where(norms > 0, 1.0 / safe, 0.0)) @ feats, norms
    feats = np.asarray(features, dtype=float)
    if feats.ndim != 2:
        raise ValidationError(f"features must be 2-D, got shape {feats.shape}")
    norms = np.linalg.norm(feats, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = feats / safe[:, None]
    unit[norms == 0] = 0.0
    return unit, norms


def cosine_panel(unit, featureless: np.ndarray, columns, *,
                 clip_negative: bool = True) -> np.ndarray:
    """Cosine similarities of every node against the nodes ``columns``.

    ``unit`` is :func:`unit_feature_rows`' ``F̂`` and ``featureless``
    the ``(n,)`` mask of its zero-norm rows; ``columns`` is a slice or
    an index list.  Returns the dense ``(n, len(columns))`` panel
    ``F̂ F̂[columns]ᵀ``, negatives clipped to zero (unless
    ``clip_negative`` is false), featureless rows and columns zeroed.

    The one similarity kernel: the full matrix, the top-k column blocks
    and the streamed rows of a patched ``W`` are all its panels.  Each
    entry is reduced in a fixed per-element order, whatever the panel's
    width: dense features use ``einsum``, not a BLAS GEMM (whose kernel
    choice, and last-bit rounding, varies with the width); the sparse
    product accumulates each entry in the order of the left operand's
    row.  So a panel equals the matching columns of the full matrix bit
    for bit, and top-k ties resolve alike on every path.
    """
    if sp.issparse(unit):
        sims = (unit @ unit[columns].T).toarray()
    else:
        sims = np.einsum("nd,cd->nc", unit, unit[columns])
    if clip_negative:
        np.clip(sims, 0.0, None, out=sims)
    sims[featureless, :] = 0.0
    sims[:, featureless[columns]] = 0.0
    return sims


def cosine_similarity_matrix(features, *, clip_negative: bool = True) -> np.ndarray:
    """Dense pairwise cosine similarity ``C`` of node features.

    Rows with zero norm yield zero similarity against everything
    (including themselves).
    """
    unit, norms = unit_feature_rows(features)
    return cosine_panel(unit, norms == 0, slice(None), clip_negative=clip_negative)


def rbf_similarity_matrix(features, *, bandwidth: float | None = None) -> np.ndarray:
    """Gaussian (RBF) similarity ``exp(-||f_i - f_j||^2 / (2 sigma^2))``.

    ``bandwidth`` (sigma) defaults to the median pairwise distance —
    the standard median heuristic.  One of the metric-learning style
    alternatives section 4.2 mentions for the node-similarity graph.
    """
    feats = features.toarray() if sp.issparse(features) else np.asarray(features, float)
    if feats.ndim != 2:
        raise ValidationError(f"features must be 2-D, got shape {feats.shape}")
    squared_norms = (feats**2).sum(axis=1)
    distances_sq = squared_norms[:, None] + squared_norms[None, :] - 2 * feats @ feats.T
    np.clip(distances_sq, 0.0, None, out=distances_sq)
    if bandwidth is None:
        off_diagonal = distances_sq[~np.eye(len(feats), dtype=bool)]
        median_sq = float(np.median(off_diagonal)) if off_diagonal.size else 1.0
        bandwidth = np.sqrt(median_sq) if median_sq > 0 else 1.0
    elif bandwidth <= 0:
        raise ValidationError(f"bandwidth must be positive, got {bandwidth}")
    return np.exp(-distances_sq / (2.0 * bandwidth**2))


def jaccard_similarity_matrix(features) -> np.ndarray:
    """Generalised Jaccard similarity ``sum min / sum max`` of count rows.

    Natural for bag-of-words features; requires non-negative entries.
    Two all-zero rows have similarity 0 (unknown, like the cosine case).
    """
    feats = features.toarray() if sp.issparse(features) else np.asarray(features, float)
    if feats.ndim != 2:
        raise ValidationError(f"features must be 2-D, got shape {feats.shape}")
    if feats.size and feats.min() < 0:
        raise ValidationError("jaccard similarity requires non-negative features")
    n = feats.shape[0]
    # sum(min(a, b)) + sum(max(a, b)) == sum(a) + sum(b), so only the
    # min-sums need an explicit pass; computed in row blocks to bound
    # the (n, block, d) broadcast at ~8 MB.
    row_sums = feats.sum(axis=1)
    sims = np.zeros((n, n))
    block = max(1, int(1e6 / max(feats.shape[1], 1)))
    for start in range(0, n, block):
        stop = min(start + block, n)
        min_sums = np.minimum(feats[None, start:stop, :], feats[:, None, :]).sum(axis=2)
        max_sums = row_sums[:, None] + row_sums[None, start:stop] - min_sums
        with np.errstate(invalid="ignore", divide="ignore"):
            sims[:, start:stop] = np.where(
                max_sums > 0, min_sums / np.where(max_sums > 0, max_sums, 1.0), 0.0
            )
    return sims


#: Similarity functions selectable in :func:`feature_transition_matrix`.
SIMILARITY_METRICS = ("cosine", "rbf", "jaccard")


def normalise_similarity_columns(sims: np.ndarray) -> np.ndarray:
    """The Eq. 9 tail: column-normalise ``sims``, zero columns uniform.

    Mutates ``sims`` in place (zero columns are overwritten with ones)
    and returns the normalised matrix.  Shared by
    :func:`feature_transition_matrix` and the streaming ``W`` patcher —
    one code path is what keeps the patched matrix bit-identical to a
    rebuild given the same similarity values.
    """
    col_sums = sims.sum(axis=0)
    zero_cols = col_sums == 0
    if np.any(zero_cols):
        # Featureless nodes: uniform column, as with dangling fibres.
        sims[:, zero_cols] = 1.0
        col_sums = sims.sum(axis=0)
    return sims / col_sums[None, :]


def topk_cosine_transition_matrix(
    features, top_k: int, *, chunk_size: int = 512
) -> sp.csr_matrix:
    """Chunked top-k cosine ``W`` without the dense ``n x n`` similarity.

    Equivalent to ``feature_transition_matrix(features, top_k=top_k)``
    but computes similarities in column blocks of ``chunk_size``, so peak
    memory is ``O(n * chunk_size)`` instead of ``O(n^2)`` — the path for
    networks with tens of thousands of nodes.

    The output is bit-identical for every valid ``chunk_size`` (a
    property test pins ``chunk_size`` in ``{1, 7, 512, n}``): each
    column's top-k selection and values depend only on that column's
    similarity panel, and :func:`cosine_panel` gives every column the
    same bits whatever the panel's width.  The out-of-core operator
    builds (:mod:`repro.ooc.build`) rely on this invariant.
    """
    top_k = check_positive_int(top_k, "top_k")
    chunk_size = check_positive_int(chunk_size, "chunk_size")
    unit, norms = unit_feature_rows(features)
    n = unit.shape[0]
    zero_rows = norms == 0
    k = min(top_k, n)

    rows_out: list[np.ndarray] = []
    cols_out: list[np.ndarray] = []
    data_out: list[np.ndarray] = []
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        sims = cosine_panel(unit, zero_rows, slice(start, stop))
        # Force the diagonal in so self-similarity always survives
        # (featureless nodes excluded: their columns stay empty and fall
        # back to the uniform distribution below, matching the dense path).
        local = np.arange(start, stop)
        with_features = ~zero_rows[start:stop]
        sims[local[with_features], (local - start)[with_features]] = np.maximum(
            sims[local[with_features], (local - start)[with_features]], 1e-12
        )
        if k < n:
            top_rows = np.argpartition(-sims, k - 1, axis=0)[:k, :]
        else:
            top_rows = np.tile(np.arange(n)[:, None], (1, stop - start))
        block_cols = np.repeat(np.arange(start, stop)[None, :], top_rows.shape[0], 0)
        values = sims[top_rows, block_cols - start]
        keep = values > 0
        rows_out.append(top_rows[keep])
        cols_out.append(block_cols[keep])
        data_out.append(values[keep])
    matrix = sp.csr_matrix(
        (
            np.concatenate(data_out),
            (np.concatenate(rows_out), np.concatenate(cols_out)),
        ),
        shape=(n, n),
    )
    col_sums = np.asarray(matrix.sum(axis=0)).ravel()
    empty = col_sums == 0
    if np.any(empty):
        # Featureless columns: uniform, as elsewhere.
        uniform = sp.csr_matrix(
            (
                np.full(int(empty.sum()) * n, 1.0),
                (
                    np.tile(np.arange(n), int(empty.sum())),
                    np.repeat(np.flatnonzero(empty), n),
                ),
            ),
            shape=(n, n),
        )
        matrix = matrix + uniform
        col_sums = np.asarray(matrix.sum(axis=0)).ravel()
    return (matrix @ sp.diags(1.0 / col_sums)).tocsr()


def feature_transition_matrix(
    features, *, top_k: int | None = None, metric: str = "cosine"
):
    """The column-stochastic ``W`` of Eq. 9.

    Parameters
    ----------
    features:
        ``(n, d)`` dense array or scipy sparse matrix.
    top_k:
        When given, keep only the ``top_k`` largest similarities per
        column (the diagonal always survives) before normalising.  Returns
        a CSR matrix in that case, a dense array otherwise.
    metric:
        Node-similarity function: ``"cosine"`` (the paper's choice),
        ``"rbf"`` or ``"jaccard"`` (section 4.2 notes that any distance
        metric can drive the feature graph; an ablation bench compares
        them).

    Returns
    -------
    ``(n, n)`` column-stochastic matrix: every column is non-negative and
    sums to one (zero-similarity columns become uniform).
    """
    if metric == "cosine":
        sims = cosine_similarity_matrix(features)
    elif metric == "rbf":
        sims = rbf_similarity_matrix(features)
    elif metric == "jaccard":
        sims = jaccard_similarity_matrix(features)
    else:
        raise ValidationError(
            f"metric must be one of {SIMILARITY_METRICS}, got {metric!r}"
        )
    n = sims.shape[0]
    if top_k is not None:
        top_k = check_positive_int(top_k, "top_k")
        if top_k < n:
            # Zero out everything below each column's top_k values,
            # keeping the diagonal so self-similarity always survives.
            keep = np.zeros_like(sims, dtype=bool)
            idx = np.argpartition(-sims, top_k - 1, axis=0)[:top_k, :]
            keep[idx, np.arange(n)[None, :].repeat(top_k, axis=0)] = True
            keep[np.diag_indices(n)] = True
            sims = np.where(keep, sims, 0.0)
    result = normalise_similarity_columns(sims)
    if top_k is not None:
        return sp.csr_matrix(result)
    return result


def factored_cosine_transition_matrix(features) -> LowRankMatrix:
    """Eq. 9's cosine ``W`` for non-negative features, as an exact product.

    For non-negative ``F̂`` every cosine is already non-negative, so
    Eq. 9 is ``W = F̂ F̂ᵀ D⁻¹`` on featured columns, with column sums
    ``D = F̂ (F̂ᵀ 1)``, and uniform ``1/n`` on featureless ones:
    ``W = F̂ F̂ᵀ D⁻¹ + (1/n) 1 1_zeroᵀ``, where ``1_zero`` marks the
    featureless nodes.  The :class:`LowRankMatrix` keeps ``F̂`` once,
    plus the ``n``-vectors ``D⁻¹`` and ``1_zero``; sparse features keep
    a sparse ``F̂``.

    ``W @ X`` costs ``O(n d q)`` instead of ``O(n^2 q)`` and ``W`` takes
    about ``n d`` floats instead of ``n^2``; the values match
    :func:`feature_transition_matrix` up to float rounding.  The caller
    guarantees the features have no negative entry (see
    :func:`feature_walk_form`).
    """
    unit, _ = unit_feature_rows(features)
    if sp.issparse(unit):
        totals = np.asarray(unit.sum(axis=0)).ravel()
    else:
        totals = unit.sum(axis=0)
    col_sums = np.asarray(unit @ totals).ravel()
    featured = col_sums > 0
    col_scale = np.zeros(unit.shape[0])
    col_scale[featured] = 1.0 / col_sums[featured]
    return LowRankMatrix(unit, col_scale, ~featured)


def feature_walk_form(
    features, *, top_k: int | None = None, metric: str = "cosine"
) -> str:
    """Which ``W`` :func:`feature_walk_matrix` builds for these features.

    ``"factored"`` when all of these hold: ``metric == "cosine"``,
    ``top_k is None``, the features have no negative entry, and the
    factored product is cheaper to apply than the dense one
    (``2 (d + 1) < n``; for sparse features ``2 nnz(F) < n^2``).
    Otherwise ``"sparse"`` when ``top_k`` is set and ``"dense"`` when
    not.
    """
    if top_k is not None:
        return "sparse"
    if sp.issparse(features):
        n = features.shape[0]
        values = sp.csr_matrix(features).data
        cheaper = 2 * values.size < n * n
    else:
        values = np.asarray(features, dtype=float)
        if values.ndim != 2:  # feature_transition_matrix reports it
            return "dense"
        n, d = values.shape
        cheaper = 2 * (d + 1) < n
    if metric == "cosine" and cheaper and not (values.size and values.min() < 0):
        return "factored"
    return "dense"


def feature_walk_matrix(features, *, top_k: int | None = None, metric: str = "cosine"):
    """The ``W`` the chains walk: factored when exact and cheaper, else Eq. 9.

    Picks :func:`factored_cosine_transition_matrix` when
    :func:`feature_walk_form` says ``"factored"``.  Otherwise it is
    :func:`feature_transition_matrix`: with ``top_k`` its CSR as a
    :class:`~repro.tensor.transition.RowWalk` (walked by rows, like
    ``O`` and ``R``, in memory, in shard workers and over a store), and
    the dense array without.  Used by
    :func:`repro.core.tmark.build_operators` and
    :class:`repro.stream.IncrementalOperators`.
    """
    form = feature_walk_form(features, top_k=top_k, metric=metric)
    if form == "factored":
        return factored_cosine_transition_matrix(features)
    w_matrix = feature_transition_matrix(features, top_k=top_k, metric=metric)
    return RowWalk(w_matrix) if form == "sparse" else w_matrix


def walk_matrix_form(w_matrix) -> tuple[str, int]:
    """``(form, rank)`` of a built ``W``, as traces report it.

    The form is ``"factored"`` for a :class:`LowRankMatrix`,
    ``"sparse"`` for a :class:`~repro.tensor.transition.RowWalk` (the
    top-k ``W``, in memory or store-backed) and ``"dense"`` otherwise;
    the rank is the inner dimension of one ``W @ X`` product (``d + 1``
    factored, ``n`` otherwise).
    """
    if isinstance(w_matrix, LowRankMatrix):
        return "factored", w_matrix.rank
    return ("sparse" if isinstance(w_matrix, RowWalk) else "dense"), w_matrix.shape[1]
