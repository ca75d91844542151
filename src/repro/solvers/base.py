"""Solver protocol, registry and the simplex safeguard.

A *solver* accelerates one per-class chain.  The chain runner evaluates
the plain Algorithm 1 step first — that evaluation is both the fallback
iterate and the map sample the accelerators extrapolate from — then
offers the ``(x_prev, g_x)`` pair to the solver via :meth:`propose`.
A ``None`` return keeps the plain step; a returned proposal replaces it
*only after* :func:`safeguard_proposal` confirms the extrapolated
iterate still lives on the probability simplex (up to the documented
drift tolerances).  Rejected proposals fall back to the plain step and
reset the solver's history (a ``solver_restart`` trace event), so a
misbehaving extrapolation can never push a chain off Theorem 1's
invariant set — the worst case is plain-iteration progress.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

#: Registered solver names (``TMark(solver=...)`` accepts exactly these).
SOLVER_NAMES = ("plain", "anderson", "auto")

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


def safeguard_proposal(proposal: np.ndarray) -> np.ndarray | None:
    """Project an extrapolated iterate back onto the simplex, or reject it.

    Returns the clipped-and-renormalised proposal when it is finite,
    no entry is below ``-``:data:`SAFEGUARD_NEGATIVE_TOL`, and the total
    mass lies within :data:`SAFEGUARD_MASS_BOUNDS`; ``None`` otherwise.
    ``None`` tells the chain runner to keep the plain power step — the
    safeguarded-fallback half of the solver contract.
    """
    arr = np.asarray(proposal, dtype=float)
    if not np.all(np.isfinite(arr)):
        return None
    if float(arr.min()) < -SAFEGUARD_NEGATIVE_TOL:
        return None
    clipped = np.clip(arr, 0.0, None)
    total = float(clipped.sum())
    low, high = SAFEGUARD_MASS_BOUNDS
    if not low <= total <= high:
        return None
    return clipped / total


def propose_safeguarded(accelerator, x_prev, x_plain, *, t, residuals):
    """One solver step: offer the pair, safeguard the proposal.

    The shared per-class acceleration step of the serial and sharded
    chain runners — both must apply the identical logic (and identical
    floating-point operations) or accelerated sharded fits would drift
    from serial ones.  Returns ``(outcome, column)`` where ``outcome``
    is one of:

    * ``"none"`` — the accelerator proposed nothing; keep the plain step;
    * ``"rejected"`` — the safeguard refused the proposal; the
      accelerator's history was restarted (``rejected()``) and the plain
      step stands (the caller emits a ``solver_restart`` event);
    * ``"accepted"`` — ``column`` is the safeguarded iterate to install
      (the caller emits a ``solver_step`` event).
    """
    proposal = accelerator.propose(x_prev, x_plain, t=t, residuals=residuals)
    if proposal is None:
        return "none", None
    safe = safeguard_proposal(proposal)
    if safe is None:
        accelerator.rejected()
        return "rejected", None
    return "accepted", safe


class FixedPointAccelerator:
    """Base class for per-class chain accelerators.

    One instance serves one class chain for one fit; the chain runner
    creates a fresh solver per class so histories never mix.

    Attributes
    ----------
    tol:
        The chain's stopping tolerance.  Every accelerator implements
        the *exact-limit* guarantee through it: when the plain step
        already moved less than ``tol`` the solver proposes nothing, so
        acceleration can never push a converged chain off its fixed
        point.

    What a solver did is reported by the chain runner, not counted
    here: every accepted proposal is a ``solver_step`` event and every
    history reset a ``solver_restart`` event.
    """

    name = "base"

    def __init__(self, *, tol: float):
        if tol <= 0:
            raise ValidationError(f"tol must be positive, got {tol}")
        self.tol = float(tol)

    @property
    def active_name(self) -> str:
        """The solver actually driving proposals (adaptive overrides)."""
        return self.name

    def propose(self, x_prev, g_x, *, t: int, residuals) -> np.ndarray | None:
        """Offer an accelerated iterate for this step, or ``None``.

        Parameters
        ----------
        x_prev:
            The previous accepted iterate ``x_{t-1}`` (a private copy —
            solvers may keep it without copying again).
        g_x:
            The plain Algorithm 1 step evaluated at ``x_prev`` (also a
            private copy), already projected onto the simplex.
        t:
            1-based iteration number.
        residuals:
            The chain's residual history so far (read-only) — the
            adaptive solver reads its decay rate off this.
        """
        raise NotImplementedError

    def map_changed(self) -> None:
        """The Eq. 12 update altered the restart vector: drop history.

        The accelerators model a *fixed* map; when the label update
        accepts new nodes the map itself moves, so extrapolating across
        the change would chase a stale fixed point.
        """
        self.reset()

    def rejected(self) -> None:
        """The safeguard rejected the last proposal: drop history."""
        self.reset()

    def reset(self) -> None:
        """Clear accumulated iterate history (overridden by subclasses)."""


def check_solver(solver: str) -> str:
    """Validate a solver name against :data:`SOLVER_NAMES`."""
    if solver not in SOLVER_NAMES:
        raise ValidationError(
            f"solver must be one of {SOLVER_NAMES}, got {solver!r}"
        )
    return solver


def make_solver(solver: str, *, tol: float) -> FixedPointAccelerator | None:
    """Instantiate one per-class solver; ``None`` for the plain step."""
    from repro.solvers.adaptive import AdaptiveAccelerator
    from repro.solvers.anderson import AndersonAccelerator

    check_solver(solver)
    if solver == PLAIN_SOLVER:
        return None
    if solver == "anderson":
        return AndersonAccelerator(tol=tol)
    return AdaptiveAccelerator(tol=tol)
