"""The fixed-point accelerator for the per-class stationary iteration.

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

This package provides the one accelerator, which the chain driver
(:func:`repro.core.chains.run_chains`, whatever its backend) consults
once per iteration with the whole active block of chains:
:class:`~repro.solvers.anderson.AndersonMixer` — windowed Anderson
mixing (DIIS) of the recent iterates, one stacked mixer per fit whose
rows are the class chains; its small least-squares solves are
element-wise numpy, with no BLAS or LAPACK call.  A fit's solver is
the model's ``TMark.solver`` attribute, one of :data:`SOLVER_NAMES`.

The mixer carries two guarantees, row by row:

* **exact limit** — at (or within ``tol`` of) a fixed point the mixer
  proposes nothing for that row, so an accelerated chain stops at the
  same stationary pair the plain iteration would reach;
* **safeguarded fallback** — a proposal is accepted only if it passes
  :func:`~repro.solvers.base.safeguard_proposal` (finite, inside the
  simplex up to the documented drift/mass tolerances); otherwise the
  plain power step is used and that row's history restarts.

``solver="plain"`` bypasses the package entirely: the chain runner takes
the exact pre-solver code path, so plain fits are bit-identical to
releases predating this layer.
"""

from repro.solvers.anderson import AndersonMixer
from repro.solvers.base import (
    PLAIN_SOLVER,
    SOLVER_NAMES,
    check_solver,
    make_solver,
    safeguard_proposal,
)

__all__ = [
    "SOLVER_NAMES",
    "PLAIN_SOLVER",
    "check_solver",
    "make_solver",
    "safeguard_proposal",
    "AndersonMixer",
]
