"""Solver registry and the row-wise simplex safeguard.

A *solver* accelerates the per-class chains of one fit.  The chain
runner evaluates the plain Algorithm 1 step first — that evaluation is
both the fallback iterate and the map sample the mixer extrapolates
from — then offers the whole active block of ``(x_prev, g_x)`` rows to
the fit's :class:`~repro.solvers.anderson.AndersonMixer`.  A row's
proposal replaces its plain step *only after*
:func:`safeguard_proposal` confirms the extrapolated iterate still lives
on the probability simplex (up to the documented drift tolerances).
Rejected proposals fall back to the plain step and reset that row's
history (a ``solver_restart`` trace event), so a misbehaving
extrapolation can never push a chain off Theorem 1's invariant set —
the worst case is plain-iteration progress.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

#: Registered solver names (``TMark(solver=...)`` accepts exactly these).
SOLVER_NAMES = ("plain", "anderson")

#: The no-acceleration default: the chain runner special-cases this name
#: and never instantiates a solver object for it, keeping plain fits
#: bit-identical to the pre-solver code path.
PLAIN_SOLVER = "plain"

#: Proposals with entries below this are rejected outright — the same
#: negativity budget :func:`repro.utils.simplex.project_to_simplex`
#: treats as numerical drift rather than a bug.
SAFEGUARD_NEGATIVE_TOL = 1e-6

#: Accepted proposals must carry total mass within these bounds before
#: renormalisation; an extrapolation that halves or doubles the simplex
#: mass has left the contraction's basin and is rejected instead of
#: being silently rescaled.
SAFEGUARD_MASS_BOUNDS = (0.5, 2.0)


def safeguard_proposal(proposals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project extrapolated rows back onto the simplex, or reject them.

    ``proposals`` is a C-contiguous ``(a, n)`` block, one proposal per
    row.  Returns ``(safe, ok)``: ``ok[r]`` holds when row ``r`` is
    finite, no entry is below ``-``:data:`SAFEGUARD_NEGATIVE_TOL` and its
    clipped mass lies within :data:`SAFEGUARD_MASS_BOUNDS`; ``safe[r]``
    is then the clipped-and-renormalised row (its mass a 1-D row sum,
    the reduction a single-vector check would run).  Rows with
    ``ok[r]`` false keep the plain power step — the safeguarded-fallback
    half of the solver contract — and their ``safe`` row is meaningless.
    """
    arr = np.asarray(proposals, dtype=float)
    finite = np.isfinite(arr).all(axis=1)
    if not finite.all():
        arr = np.where(finite[:, None], arr, 0.0)
    clipped = np.clip(arr, 0.0, None)
    total = clipped.sum(axis=1)
    low, high = SAFEGUARD_MASS_BOUNDS
    ok = (
        finite
        & (arr.min(axis=1) >= -SAFEGUARD_NEGATIVE_TOL)
        & (total >= low)
        & (total <= high)
    )
    return clipped / np.where(ok, total, 1.0)[:, None], ok


def check_solver(solver: str) -> str:
    """Validate a solver name against :data:`SOLVER_NAMES`."""
    if solver not in SOLVER_NAMES:
        raise ValidationError(
            f"solver must be one of {SOLVER_NAMES}, got {solver!r}"
        )
    return solver


def make_solver(solver: str, *, tol: float, rows: int, size: int):
    """The fit's stacked mixer over ``rows`` chains of ``size`` nodes.

    ``None`` for the plain step: the chain runner then creates no solver
    object and runs no solver statement.
    """
    from repro.solvers.anderson import AndersonMixer

    check_solver(solver)
    if solver == PLAIN_SOLVER:
        return None
    return AndersonMixer(rows, size, tol=tol)
