"""Health-driven solver selection (``solver="auto"``).

The adaptive solver is a selection policy: it watches the chain's
residual series through the same estimator the :mod:`repro.obs.health`
diagnostics use, and only pays for acceleration when the empirical
decay rate says the plain power step is slow.

Policy
------
* For the first :data:`PROBE_ITERATIONS` plain steps the solver stays
  dormant and just observes — :func:`estimate_decay_rate` needs a tail
  past its burn-in to mean anything.
* Once the rate estimate is available, a chain decaying at
  rate ≥ :data:`SLOW_RATE` (or whose residuals have stopped decaying
  entirely, rate ≥ 1) engages Anderson mixing — the solver *is* an
  :class:`~repro.solvers.anderson.AndersonAccelerator` that starts its
  history at the switch; healthy chains keep the cheap plain step and
  the solver never interferes.
* The decision is sticky in one direction only: a chain on Anderson
  stays on Anderson (its residual series no longer reflects the plain
  map's rate), while a dormant chain keeps re-checking as the series
  grows, so a chain that starts fast and stalls later still gets help.

``active_name`` reports ``"plain"`` while dormant and ``"anderson"``
after the switch, which is what the ``solver_step`` trace events carry.
"""

from __future__ import annotations

import math

from repro.obs.health import estimate_decay_rate
from repro.solvers.anderson import AndersonAccelerator
from repro.solvers.base import PLAIN_SOLVER

#: Plain iterations observed before the first switch decision.
PROBE_ITERATIONS = 8

#: Empirical decay rates at or above this mark a chain as slow-mixing.
#: At 0.9 the plain step needs ~20 iterations per residual decade —
#: the regime where Anderson's mixing pays for its lstsq.
SLOW_RATE = 0.9


class AdaptiveAccelerator(AndersonAccelerator):
    """Anderson mixing that stays dormant until a chain proves slow.

    While dormant, :meth:`propose` records nothing, so the history a
    restart or the safeguard would drop is empty and the engaged solver
    starts from the switching iteration's pair.
    """

    name = "auto"
    _engaged = False

    @property
    def active_name(self) -> str:
        """``"plain"`` while dormant, ``"anderson"`` after the switch."""
        return AndersonAccelerator.name if self._engaged else PLAIN_SOLVER

    def propose(self, x_prev, g_x, *, t: int, residuals):
        if not self._engaged:
            if t < PROBE_ITERATIONS or not self._is_slow(residuals):
                return None
            self._engaged = True
        return super().propose(x_prev, g_x, t=t, residuals=residuals)

    def _is_slow(self, residuals) -> bool:
        rate = estimate_decay_rate(residuals)
        return not math.isnan(rate) and rate >= SLOW_RATE
