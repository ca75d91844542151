"""Property tests: accelerated solvers reach the plain fixed point.

The solver contract (see :mod:`repro.solvers`) is that acceleration
changes *how fast* the per-class chains converge, never *where to*: the
safeguarded fallback and exact-limit gate guarantee an accelerated fit
lands on the same stationary point as the plain power iteration, up to
the stopping tolerance.  These tests sweep a roster of synthetic HINs —
varying size, class count, homophily and the Eq. 12 label update — and
assert fixed-point agreement plus argmax-identical predictions for every
registered solver.
"""

import numpy as np
import pytest

from repro.core import TMark
from repro.solvers import SOLVER_NAMES
from tests.conftest import small_labeled_hin

ACCELERATED = tuple(name for name in SOLVER_NAMES if name != "plain")

#: (seed, n_nodes, n_classes, update_labels) — the synthetic roster.
ROSTER = [
    (0, 25, 2, False),
    (1, 30, 3, False),
    (2, 40, 4, False),
    (3, 30, 3, True),
]

TOL = 1e-9


def fit_scores(hin, solver):
    model = TMark(
        alpha=0.7, gamma=0.4, tol=TOL, max_iter=2000, solver=solver
    ).fit(hin)
    assert all(h.converged for h in model.result_.histories), solver
    return model.result_


@pytest.mark.parametrize("solver", ACCELERATED)
@pytest.mark.parametrize("seed,n,q,update_labels", ROSTER)
def test_same_fixed_point_as_plain(solver, seed, n, q, update_labels):
    hin = small_labeled_hin(seed=seed, n=n, q=q)
    plain = TMark(
        alpha=0.7,
        gamma=0.4,
        tol=TOL,
        max_iter=2000,
        update_labels=update_labels,
    ).fit(hin)
    accel = TMark(
        alpha=0.7,
        gamma=0.4,
        tol=TOL,
        max_iter=2000,
        update_labels=update_labels,
        solver=solver,
    ).fit(hin)
    assert all(h.converged for h in accel.result_.histories)
    # Both iterations stopped within TOL of the unique fixed point, so
    # per-column stationary scores agree to a small multiple of TOL.
    drift = float(
        np.abs(plain.result_.node_scores - accel.result_.node_scores).max()
    )
    assert drift < 100 * TOL
    np.testing.assert_array_equal(
        plain.result_.node_scores.argmax(axis=1),
        accel.result_.node_scores.argmax(axis=1),
    )


@pytest.mark.parametrize("solver", ACCELERATED)
def test_relation_scores_agree_too(solver):
    hin = small_labeled_hin(seed=5, n=30, q=3)
    plain = fit_scores(hin, "plain")
    accel = fit_scores(hin, solver)
    drift = float(np.abs(plain.relation_scores - accel.relation_scores).max())
    assert drift < 100 * TOL


@pytest.mark.parametrize("solver", ACCELERATED)
def test_accelerated_never_needs_more_than_double(solver):
    # Acceleration may decline to fire (a safeguard rejection, a
    # degenerate history) but the safeguard must keep the worst case
    # close to plain progress.
    hin = small_labeled_hin(seed=6, n=30, q=3)
    plain = fit_scores(hin, "plain")
    accel = fit_scores(hin, solver)
    plain_iters = sum(h.n_iterations for h in plain.histories)
    accel_iters = sum(h.n_iterations for h in accel.histories)
    assert accel_iters <= 2 * plain_iters


@pytest.mark.parametrize("solver", ACCELERATED)
def test_residual_below_tol_at_stop(solver):
    hin = small_labeled_hin(seed=7, n=25, q=3)
    result = fit_scores(hin, solver)
    for history in result.histories:
        assert history.residuals[-1] < TOL
