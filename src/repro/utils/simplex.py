"""Probability-simplex helpers.

T-Mark's stationary vectors live on probability simplices (Theorem 1 of the
paper).  These helpers centralise construction, validation and repair of
such vectors so numerical drift is handled in exactly one place.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError, ValidationError

#: Default tolerance when checking that a vector sums to one.
SUM_TOL = 1e-8

_FAR_OUTSIDE = (
    "vector is far outside the simplex (negative entries below -1e-6); "
    "this indicates a bug upstream, not numerical drift"
)


def uniform_distribution(size: int) -> np.ndarray:
    """Return the uniform distribution over ``size`` outcomes."""
    if size <= 0:
        raise ValidationError(f"size must be positive, got {size}")
    return np.full(size, 1.0 / size)


def is_distribution(vector: np.ndarray, tol: float = SUM_TOL) -> bool:
    """Return ``True`` when ``vector`` is a probability distribution.

    A distribution is a 1-D array of non-negative entries summing to one
    within ``tol``.
    """
    arr = np.asarray(vector, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        return False
    if np.any(arr < -tol):
        return False
    return bool(abs(arr.sum() - 1.0) <= tol)


def normalize_distribution(vector: np.ndarray) -> np.ndarray:
    """Scale a non-negative vector to sum to one.

    A vector of all zeros becomes the uniform distribution, matching the
    paper's dangling-node convention (an equal chance of every outcome).

    Raises
    ------
    ValidationError
        If any entry is negative.
    ShapeError
        If the input is not 1-D.
    """
    arr = np.asarray(vector, dtype=float)
    if arr.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeError("cannot normalise an empty vector")
    if np.any(arr < 0):
        raise ValidationError("cannot normalise a vector with negative entries")
    total = arr.sum()
    if total == 0.0:
        return uniform_distribution(arr.size)
    return arr / total


def project_to_simplex(vector: np.ndarray) -> np.ndarray:
    """Clip tiny negative drift and renormalise onto the simplex.

    Intended for iterates that are mathematically on the simplex but have
    accumulated floating-point error; large violations are a bug and raise.
    """
    arr = np.asarray(vector, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ShapeError(f"expected a non-empty 1-D vector, got shape {arr.shape}")
    if np.any(arr < -1e-6):
        raise ValidationError(_FAR_OUTSIDE)
    clipped = np.clip(arr, 0.0, None)
    return normalize_distribution(clipped)


def project_columns_to_simplex(block: np.ndarray) -> np.ndarray:
    """:func:`project_to_simplex` applied to every column of ``block``.

    Column ``j`` of the ``(n, a)`` result is bit-for-bit
    ``project_to_simplex(block[:, j])``: the block is copied once into a
    C-contiguous ``(a, n)`` array whose rows are reduced with
    ``sum(axis=1)``, the same pairwise summation a 1-D column sum runs.
    (A sum over axis 0 of a C ``(n, a)`` block would accumulate row by
    row and round differently.)  The result is that array's transpose,
    an F-ordered view: ``result.T`` hands back the contiguous rows.
    """
    arr = np.asarray(block, dtype=float)
    if arr.ndim != 2 or arr.size == 0:
        raise ShapeError(f"expected a non-empty 2-D block, got shape {arr.shape}")
    rows = np.array(arr.T, order="C")
    if np.any(rows < -1e-6):
        raise ValidationError(_FAR_OUTSIDE)
    np.clip(rows, 0.0, None, out=rows)
    totals = rows.sum(axis=1)
    empty = totals == 0.0
    # All-zero columns become uniform, as normalize_distribution's do.
    totals[empty] = 1.0
    rows /= totals[:, None]
    rows[empty] = 1.0 / rows.shape[1]
    return rows.T
