"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.datasets import make_worked_example
from repro.hin.builder import HINBuilder
from repro.tensor.sptensor import SparseTensor3


@pytest.fixture
def rng():
    """A deterministic RNG for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def no_child_processes():
    """Fail a test that leaves a child process behind (fork pool tests)."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture
def worked_example():
    """The section 3.2 four-publication HIN."""
    return make_worked_example()


@pytest.fixture
def tiny_tensor():
    """The worked example's (4, 4, 3) adjacency tensor."""
    return make_worked_example().tensor


def random_sparse_tensor(rng, n=6, m=3, density=0.3) -> SparseTensor3:
    """A random non-negative sparse tensor for property tests."""
    size = n * n * m
    n_entries = max(1, int(density * size))
    flat = rng.choice(size, size=n_entries, replace=False)
    k, rest = np.divmod(flat, n * n)
    j, i = np.divmod(rest, n)
    values = rng.uniform(0.1, 2.0, size=n_entries)
    return SparseTensor3(i, j, k, values, shape=(n, n, m))


@pytest.fixture
def random_tensor(rng):
    """A single random tensor instance."""
    return random_sparse_tensor(rng)


def small_labeled_hin(seed=0, n=30, q=3, m=2):
    """A small connected random HIN with full labels, for model tests."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, q, size=n)
    for c in range(q):
        labels[c] = c  # guarantee class coverage
    label_names = [f"c{c}" for c in range(q)]
    builder = HINBuilder(label_names)
    features = np.zeros((n, q + 2))
    for idx in range(n):
        features[idx, labels[idx]] = 1.0 + rng.normal(0, 0.2)
        features[idx, q:] = rng.normal(0, 0.3, size=2)
        builder.add_node(
            f"v{idx}", features=features[idx], labels=[label_names[labels[idx]]]
        )
    relation_names = [f"r{k}" for k in range(m)]
    # A homophilous ring plus random same-class links per relation.
    for idx in range(n):
        builder.add_link(f"v{idx}", f"v{(idx + 1) % n}", relation_names[0])
    for k in range(m):
        for _ in range(2 * n):
            c = int(rng.integers(0, q))
            members = np.flatnonzero(labels == c)
            if members.size >= 2:
                u, v = rng.choice(members, size=2, replace=False)
                builder.add_link(f"v{u}", f"v{v}", relation_names[k])
    return builder.build()


def grid_cells(grid):
    """A grid's cells as ``(method, fraction) -> (mean, std, n_trials)``."""
    return {
        (method, fraction): (cell.mean, cell.std, cell.n_trials)
        for method, cells in grid.cells.items()
        for fraction, cell in zip(grid.fractions, cells)
    }


def per_trial_fit_cells(hin, methods, fractions, *, n_trials, seed):
    """The cells ``run_grid`` computes for ``seed``, each trial fitted alone.

    Same form as :func:`grid_cells`.  Every cell draws the grid's splits,
    but no trial shares an operator triple: a T-Mark trial is a plain
    ``TMark.fit`` that builds its own ``(O, R, W)``.
    """
    from repro.experiments.harness import evaluate_cell
    from repro.experiments.parallel import CellSpec
    from repro.obs import NULL_RECORDER

    cells = {}
    for name, factory in methods:
        for fraction in map(float, fractions):
            spec = CellSpec(
                index=0, method=name, fraction=fraction, n_trials=n_trials,
                metric="accuracy", base_entropy=seed,
            )
            cell = evaluate_cell(
                hin, factory, spec, operator_pool=None, recorder=NULL_RECORDER
            )
            cells[name, fraction] = (cell.mean, cell.std, cell.n_trials)
    return cells


@pytest.fixture
def labeled_hin():
    """A small connected labeled HIN."""
    return small_labeled_hin()


@pytest.fixture
def partially_labeled_hin(labeled_hin):
    """The same HIN with labels kept on half the nodes."""
    mask = np.zeros(labeled_hin.n_nodes, dtype=bool)
    mask[:: 2] = True
    return labeled_hin.masked(mask)
