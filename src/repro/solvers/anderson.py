"""Anderson acceleration (windowed least-squares mixing), pure numpy.

Classic Anderson/DIIS mixing for the fixed-point map ``h``: keep the
last ``window + 1`` pairs ``(x_k, h(x_k))``, form the residuals
``f_k = h(x_k) - x_k``, solve the small least-squares problem

.. math::

    \\gamma^* = \\arg\\min_\\gamma \\| f_k - \\Delta F\\, \\gamma \\|_2

over the residual differences ``\\Delta F = [f_{j} - f_{j-1}]`` and
extrapolate ``x_{k+1} = h(x_k) - \\Delta G\\, \\gamma^*`` with the
matching map-value differences ``\\Delta G = [h(x_j) - h(x_{j-1})]``.
For a linear contraction this is GMRES-like: the accelerated iterate
mixes the Krylov history and the slow subdominant modes cancel, cutting
a rate-``\\rho`` chain's iteration count by roughly the window size.

The solver does not assume its proposals were accepted: the pairs it
stores are whatever iterates the chain actually took, which is the
general (safeguarded) Anderson form.  The exact-limit guarantee is the
``tol`` gate in :meth:`propose` — at a reached fixed point ``f_k`` is
below tolerance and the solver stays silent.
"""

from __future__ import annotations

import numpy as np

from repro.solvers.base import FixedPointAccelerator

#: Default mixing-window size (pairs kept beyond the current one).
DEFAULT_WINDOW = 5


class AndersonAccelerator(FixedPointAccelerator):
    """Windowed Anderson mixing for one per-class chain."""

    name = "anderson"

    def __init__(self, *, tol: float, window: int = DEFAULT_WINDOW):
        super().__init__(tol=tol)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        self._xs: list[np.ndarray] = []
        self._gs: list[np.ndarray] = []

    def reset(self) -> None:
        self._xs.clear()
        self._gs.clear()

    def propose(self, x_prev, g_x, *, t: int, residuals) -> np.ndarray | None:
        self._xs.append(x_prev)
        self._gs.append(g_x)
        if len(self._xs) > self.window + 1:
            del self._xs[0], self._gs[0]
        if len(self._xs) < 2:
            return None
        fs = [g - x for x, g in zip(self._xs, self._gs)]
        f_last = fs[-1]
        if float(np.abs(f_last).sum()) < self.tol:
            # Exact limit: the plain step already sits on the fixed
            # point; extrapolating would only perturb it.
            return None
        delta_f = np.column_stack([b - a for a, b in zip(fs, fs[1:])])
        delta_g = np.column_stack(
            [b - a for a, b in zip(self._gs, self._gs[1:])]
        )
        gamma, *_ = np.linalg.lstsq(delta_f, f_last, rcond=None)
        if not np.all(np.isfinite(gamma)):
            self.reset()
            return None
        return self._gs[-1] - delta_g @ gamma
