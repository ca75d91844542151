"""Pluggable fixed-point accelerators for the per-class stationary iteration.

The dominant cost of every T-Mark experiment is the per-class ``(x, z)``
fixed-point iteration of Algorithm 1.  Viewed through the composite map

.. math::

    h(x) = \\Pi\\big[(1-\\alpha-\\beta)\\, O \\bar\\times_1 x \\bar\\times_3
           R(x, x) + \\beta W x + \\alpha l\\big]

(``\\Pi`` the simplex projection; ``z`` is the induced ``R(x, x)``), the
plain iteration is a damped power method whose convergence rate is the
chain's subdominant eigenvalue — near 1 for weakly-restarted or
heavily-mixed chains (see :mod:`repro.obs.health`).  The related work is
essentially a menu of accelerators for exactly this problem class:
low-rank tensor Markov models (arXiv 2411.02098) and multigrid with
low-rank corrections for tensor-structured chains (arXiv 1412.0937).

This package provides those accelerators as *solvers* the chain driver
(:func:`repro.core.chains.run_chains`, whatever its backend) consults
once per iteration per class:

* :class:`~repro.solvers.anderson.AndersonAccelerator` — windowed
  least-squares mixing of the recent iterates (Anderson acceleration /
  DIIS), pure numpy;
* :class:`~repro.solvers.adaptive.AdaptiveAccelerator` — reads the
  chain's empirical decay rate through the
  :mod:`repro.obs.health` estimators and switches a slow chain (rate
  near 1) onto Anderson while leaving healthy chains on the cheap plain
  step.

Every accelerator carries the same two guarantees:

* **exact limit** — at (or within ``tol`` of) a fixed point the solver
  proposes nothing, so an accelerated chain stops at the same
  stationary pair the plain iteration would reach;
* **safeguarded fallback** — a proposal is accepted only if it passes
  :func:`~repro.solvers.base.safeguard_proposal` (finite, inside the
  simplex up to the documented drift/mass tolerances); otherwise the
  plain power step is used and the solver's history restarts.

``solver="plain"`` bypasses the package entirely: the chain runner takes
the exact pre-solver code path, so plain fits are bit-identical to
releases predating this layer.
"""

from repro.solvers.adaptive import AdaptiveAccelerator
from repro.solvers.anderson import AndersonAccelerator
from repro.solvers.base import (
    PLAIN_SOLVER,
    SOLVER_NAMES,
    FixedPointAccelerator,
    check_solver,
    make_solver,
    safeguard_proposal,
)

__all__ = [
    "SOLVER_NAMES",
    "PLAIN_SOLVER",
    "FixedPointAccelerator",
    "check_solver",
    "make_solver",
    "safeguard_proposal",
    "AndersonAccelerator",
    "AdaptiveAccelerator",
]
