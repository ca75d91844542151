"""Health-driven solver selection (``solver="auto"``).

The adaptive solver is a selection policy: it watches each chain's
residual series through the same estimator the :mod:`repro.obs.health`
diagnostics use, and only pays for acceleration when the empirical
decay rate says the plain power step is slow.

Policy
------
* For the first :data:`PROBE_ITERATIONS` plain steps a row stays
  dormant and just observes — :func:`estimate_decay_rate` needs a tail
  past its burn-in to mean anything.
* Once the rate estimate is available, a chain decaying at
  rate ≥ :data:`SLOW_RATE` (or whose residuals have stopped decaying
  entirely, rate ≥ 1) engages Anderson mixing: its row of the fit's
  :class:`~repro.solvers.anderson.AndersonMixer` starts recording at the
  switch; healthy chains keep the cheap plain step and the mixer never
  touches them.
* The decision is sticky in one direction only: a chain on Anderson
  stays on Anderson (its residual series no longer reflects the plain
  map's rate), while a dormant chain keeps re-checking as the series
  grows, so a chain that starts fast and stalls later still gets help.

A dormant row's events carry ``"plain"`` and an engaged row's
``"anderson"``.
"""

from __future__ import annotations

import math

from repro.obs.health import estimate_decay_rate

#: Plain iterations observed before the first switch decision.
PROBE_ITERATIONS = 8

#: Empirical decay rates at or above this mark a chain as slow-mixing.
#: At 0.9 the plain step needs ~20 iterations per residual decade —
#: the regime where Anderson's mixing pays for its solve.
SLOW_RATE = 0.9


def is_slow(t: int, residuals) -> bool:
    """Whether a dormant chain should engage Anderson at iteration ``t``."""
    if t < PROBE_ITERATIONS:
        return False
    rate = estimate_decay_rate(residuals)
    return not math.isnan(rate) and rate >= SLOW_RATE
