"""Convergence tracking for the iterative tensor Markov chains.

Every per-class chain records its residual sequence
``rho_t = ||x_t - x_{t-1}||_1 + ||z_t - z_{t-1}||_1`` — exactly the
stopping quantity of Algorithm 1 and the y-axis of the paper's Fig. 10
convergence study.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ChainHistory:
    """Residual history of one stationary-distribution iteration.

    Attributes
    ----------
    residuals:
        ``rho_t`` per iteration (1-indexed conceptually; ``residuals[0]``
        is the residual after the first update).
    converged:
        Whether the final residual fell below the tolerance.
    exhausted:
        Whether the chain spent its full ``max_iter`` budget without
        converging.  Set by the chain runners after the loop; a chain
        can be unconverged without being exhausted only transiently
        (mid-iteration).
    tol:
        The tolerance ``epsilon`` the chain ran with.
    n_anchors:
        Number of labeled training nodes anchoring the chain's class.
    accepted_history:
        Per-iteration count of *unlabeled* nodes accepted into the
        restart vector by the Eq. 12 update (empty when the update is
        disabled or has not fired yet).
    """

    tol: float
    residuals: list[float] = field(default_factory=list)
    converged: bool = False
    exhausted: bool = False
    n_anchors: int = 0
    accepted_history: list[int] = field(default_factory=list)

    @property
    def n_iterations(self) -> int:
        """Number of iterations performed."""
        return len(self.residuals)

    @property
    def final_residual(self) -> float:
        """The last recorded residual (inf before any iteration)."""
        return self.residuals[-1] if self.residuals else float("inf")

    def record(self, x_new, x_old, z_new, z_old) -> float:
        """Append and return the Algorithm 1 residual for this step."""
        rho = float(
            np.abs(np.asarray(x_new) - np.asarray(x_old)).sum()
            + np.abs(np.asarray(z_new) - np.asarray(z_old)).sum()
        )
        return self.record_residual(rho)

    def record_residual(self, rho: float) -> float:
        """Append and return an already computed residual ``rho``."""
        self.residuals.append(rho)
        self.converged = rho < self.tol
        return rho

