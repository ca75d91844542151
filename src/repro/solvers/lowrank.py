"""Randomized low-rank factorization for the dense feature operator.

The ``O`` and ``R`` tensor slices are sparse by construction (top-k
similarity truncation happens at build time), but the feature-walk
matrix ``W`` is dense: its ``W @ X`` product is the ``O(n^2 q)`` term of
every iteration.  When ``W``'s spectrum decays — which cosine-similarity
kernels over low-dimensional feature spaces guarantee, since
``rank(W) ≤ rank(F F^T) ≤ d`` — a rank-``r`` factorization
``W ≈ U V^T`` cuts that to ``O(n r q)`` with a *certified* error:

* :func:`compress_matrix` returns the factorization together with a
  power-iteration estimate of the residual spectral norm
  ``‖W - U V^T‖₂``;
* :func:`prediction_error_bound` converts that residual into an a-priori
  bound on how far the accelerated chain's stationary vector can drift,
  via the standard fixed-point perturbation argument: if the plain map
  contracts at rate ``ρ`` and each application of the compressed map is
  within ``δ = β √n ‖E‖₂`` of the exact one (1-norm, over simplex
  vectors), the fixed points differ by at most ``δ / (1 - ρ)``.

The factorization itself is the usual randomized range finder
(Halko-Martinsson-Tropp): a Gaussian sketch, a couple of power
iterations to sharpen the spectrum, QR, then an exact SVD of the small
projected matrix.  Pure numpy, deterministic under ``seed``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.errors import ValidationError

#: Extra sketch columns beyond the target rank (oversampling).
DEFAULT_OVERSAMPLES = 8

#: Subspace (power) iterations applied to the sketch.
DEFAULT_POWER_ITERATIONS = 2

#: Power-method steps used to estimate the residual spectral norm.
RESIDUAL_NORM_ITERATIONS = 12


@dataclass(frozen=True)
class LowRankMatrix:
    """A factored matrix ``U @ Vt`` that quacks like its dense product.

    Supports the one operation the chain runner needs — ``self @ X`` —
    at ``O(n r q)`` instead of ``O(n^2 q)``.  The factors are dense
    arrays or scipy sparse matrices (the exact cosine ``W`` of sparse
    features, :func:`repro.core.features.factored_cosine_transition_matrix`,
    keeps them sparse).
    """

    u: np.ndarray
    vt: np.ndarray

    def __post_init__(self):
        if self.u.ndim != 2 or self.vt.ndim != 2:
            raise ValidationError("LowRankMatrix factors must be 2-D")
        if self.u.shape[1] != self.vt.shape[0]:
            raise ValidationError(
                f"factor shapes {self.u.shape} and {self.vt.shape} "
                "do not chain"
            )

    @property
    def shape(self) -> tuple[int, int]:
        """The shape of the implied dense product ``U @ Vt``."""
        return (self.u.shape[0], self.vt.shape[1])

    @property
    def rank(self) -> int:
        """The factorization rank (inner dimension of ``U @ Vt``)."""
        return self.u.shape[1]

    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        return self.u @ (self.vt @ other)

    def dense(self) -> np.ndarray:
        """Materialise the dense product (tests and small matrices only)."""
        product = self.u @ self.vt
        return product.toarray() if sp.issparse(product) else product


def randomized_svd(
    matrix: np.ndarray,
    rank: int,
    *,
    n_oversamples: int = DEFAULT_OVERSAMPLES,
    n_power_iterations: int = DEFAULT_POWER_ITERATIONS,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Truncated SVD via a Gaussian range finder with power iterations."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValidationError("randomized_svd expects a 2-D matrix")
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    n_rows, n_cols = matrix.shape
    rank = min(rank, n_rows, n_cols)
    n_sketch = min(rank + n_oversamples, n_cols)
    rng = np.random.default_rng(seed)
    sketch = matrix @ rng.standard_normal((n_cols, n_sketch))
    q, _ = np.linalg.qr(sketch)
    for _ in range(n_power_iterations):
        q, _ = np.linalg.qr(matrix.T @ q)
        q, _ = np.linalg.qr(matrix @ q)
    small = q.T @ matrix
    u_small, s, vt = np.linalg.svd(small, full_matrices=False)
    u = q @ u_small
    return u[:, :rank], s[:rank], vt[:rank]


def _residual_norm(matrix: np.ndarray, low: LowRankMatrix, seed: int) -> float:
    """Power-method estimate of ``‖matrix - low‖₂`` without forming it."""
    rng = np.random.default_rng(seed + 1)
    v = rng.standard_normal(matrix.shape[1])
    v /= np.linalg.norm(v)
    norm = 0.0
    for _ in range(RESIDUAL_NORM_ITERATIONS):
        w = matrix @ v - low @ v
        w = matrix.T @ w - low.vt.T @ (low.u.T @ w)
        norm = float(np.linalg.norm(w))
        if norm == 0.0:
            return 0.0
        v = w / norm
    return math.sqrt(norm)


def compress_matrix(
    matrix: np.ndarray,
    rank: int,
    *,
    n_oversamples: int = DEFAULT_OVERSAMPLES,
    n_power_iterations: int = DEFAULT_POWER_ITERATIONS,
    seed: int = 0,
) -> tuple[LowRankMatrix, float]:
    """Factor ``matrix`` to rank ``rank`` and certify the residual.

    Returns ``(low, residual_norm)`` where ``residual_norm`` estimates
    ``‖matrix - low.dense()‖₂`` by the power method on the residual
    operator (never materialised).  A :class:`LowRankMatrix` of rank at
    most ``rank`` (such as the exact factored cosine ``W``) is returned
    unchanged with residual ``0.0``; a larger one is compressed from its
    dense product.
    """
    if isinstance(matrix, LowRankMatrix):
        if matrix.rank <= rank:
            return matrix, 0.0
        matrix = matrix.dense()
    u, s, vt = randomized_svd(
        matrix,
        rank,
        n_oversamples=n_oversamples,
        n_power_iterations=n_power_iterations,
        seed=seed,
    )
    low = LowRankMatrix(u * s, vt)
    return low, _residual_norm(np.asarray(matrix, dtype=float), low, seed)


def compress_operators(operators, rank: int, *, seed: int = 0):
    """Swap a :class:`TMarkOperators` bundle's ``W`` for a low-rank one.

    The ``O``/``R`` tensor slices stay untouched (they are already
    sparse); only the dense feature-walk matrix is factored.  Returns
    ``(operators_with_low_rank_w, residual_norm)``; feed the bundle to
    ``TMark.fit(..., operators=...)`` for the factorized path.
    """
    low, residual = compress_matrix(operators.w_matrix, rank, seed=seed)
    return dataclasses.replace(operators, w_matrix=low), residual


def prediction_error_bound(
    residual_norm: float,
    *,
    beta: float,
    decay_rate: float,
    n_nodes: int,
) -> float:
    """Bound the stationary-vector drift induced by the compression.

    Each iteration of the compressed map differs from the exact one by
    at most ``δ = β √n ‖E‖₂`` in the 1-norm (``‖E x‖₁ ≤ √n ‖E‖₂ ‖x‖₂``
    and simplex vectors have ``‖x‖₂ ≤ 1``), so the fixed points of a
    rate-``ρ`` contraction differ by at most ``δ / (1 - ρ)``.  Returns
    ``inf`` when the chain is not a contraction (``ρ ≥ 1``) — the bound
    is vacuous there, matching the health layer's "never converges"
    sentinel semantics.
    """
    if residual_norm < 0:
        raise ValidationError("residual_norm must be non-negative")
    if not 0 <= beta <= 1:
        raise ValidationError(f"beta must lie in [0, 1], got {beta}")
    if n_nodes < 1:
        raise ValidationError(f"n_nodes must be >= 1, got {n_nodes}")
    delta = beta * math.sqrt(n_nodes) * residual_norm
    if decay_rate >= 1.0 or math.isnan(decay_rate):
        return math.inf if delta > 0 else 0.0
    return delta / (1.0 - decay_rate)
