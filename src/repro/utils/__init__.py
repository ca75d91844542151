"""Shared utilities: RNG handling, simplex helpers, validation."""

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.simplex import (
    is_distribution,
    normalize_distribution,
    project_columns_to_simplex,
    project_to_simplex,
    uniform_distribution,
)
from repro.utils.validation import (
    check_array_1d,
    check_array_2d,
    check_fraction,
    check_positive_int,
    check_probability,
)

__all__ = [
    "ensure_rng",
    "spawn_rngs",
    "is_distribution",
    "normalize_distribution",
    "project_to_simplex",
    "project_columns_to_simplex",
    "uniform_distribution",
    "check_array_1d",
    "check_array_2d",
    "check_fraction",
    "check_positive_int",
    "check_probability",
]
