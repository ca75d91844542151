"""Anderson acceleration (windowed mixing), stacked over a fit's chains.

Classic Anderson/DIIS mixing for the fixed-point map ``h``: from the
residuals ``f_k = h(x_k) - x_k`` of the last ``window + 1`` iterates,
solve the small least-squares problem

.. math::

    \\gamma^* = \\arg\\min_\\gamma \\| f_k - \\Delta F\\, \\gamma \\|_2

over the residual differences ``\\Delta F = [f_{j} - f_{j-1}]`` and
extrapolate ``x_{k+1} = h(x_k) - \\Delta G\\, \\gamma^*`` with the
matching map-value differences ``\\Delta G = [h(x_j) - h(x_{j-1})]``.
For a linear contraction this is GMRES-like: the accelerated iterate
mixes the Krylov history and the slow subdominant modes cancel, cutting
a rate-``\\rho`` chain's iteration count by roughly the window size.

:class:`AndersonMixer` runs this for every active class chain of one
fit at once, each row of its buffers one chain:

* ``delta_f`` / ``delta_g`` are ``(a, window, n)`` rings of the
  differences, ``f_last`` / ``g_last`` the newest pair;
* ``gram`` is the ``(a, window, window)`` Gram matrix of ``delta_f``:
  each step adds one ring slot's ``window`` dot products;
* the least-squares problem is solved through its normal equations
  ``gram γ = ΔFᵀ f`` by :func:`cholesky_solve`, element-wise over the
  rows.

Every reduction is an ``np.einsum`` over one row (``optimize`` off, so
no BLAS call), and the solve is element-wise arithmetic in a fixed
order: a row's proposal bytes depend only on its own history — not on
the other rows of the block, nor on which BLAS kernel the CPU runs.

The solver does not assume its proposals were accepted: the pairs it
stores are whatever iterates the chain actually took, which is the
general (safeguarded) Anderson form.  The exact-limit guarantee is the
``tol`` gate in :meth:`AndersonMixer.step` — at a reached fixed point a
row's ``f_k`` is below tolerance and the mixer leaves that row alone.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.solvers.base import safeguard_proposal

#: Default mixing-window size (pairs kept beyond the current one).
DEFAULT_WINDOW = 5

#: A Cholesky pivot at or below this share of its Gram diagonal marks
#: the new difference as numerically dependent on the earlier ones
#: (the squared sine of its angle to their span): the row's history is
#: too degenerate to extrapolate from, so it proposes nothing and
#: restarts.
PIVOT_RTOL = 1e-12

#: The per-row state :meth:`AndersonMixer.compact` carries over.
_ROW_STATE = ("count", "f_last", "g_last", "delta_f", "delta_g", "gram")


def cholesky_solve(gram: np.ndarray, rhs: np.ndarray):
    """Solve the normal equations ``gram[r] gamma[r] = rhs[r]`` for every row ``r``.

    ``gram`` is ``(a, k, k)`` symmetric, ``rhs`` is ``(a, k)``.  A
    Cholesky factorisation and two triangular solves, written as
    element-wise operations over the rows in a fixed order, so each
    row's ``gamma`` is bit-for-bit what a scalar loop over that row
    alone computes.  Returns ``(gamma, solved)``: ``solved[r]`` is false
    when a pivot of row ``r`` was non-finite or at most
    :data:`PIVOT_RTOL` of its diagonal; that row's ``gamma`` is then
    zero.
    """
    rows, k = rhs.shape
    lower = np.zeros((rows, k, k))
    solved = np.ones(rows, dtype=bool)
    for j in range(k):
        pivot = gram[:, j, j]
        below = gram[:, j + 1:, j]
        for m in range(j):
            pivot = pivot - lower[:, j, m] * lower[:, j, m]
            below = below - lower[:, j + 1:, m] * lower[:, j, m, None]
        good = pivot > PIVOT_RTOL * gram[:, j, j]
        solved &= good
        diag = np.sqrt(np.where(good, pivot, 1.0))
        lower[:, j, j] = diag
        lower[:, j + 1:, j] = below / diag[:, None]
    y = np.empty((rows, k))
    for j in range(k):
        acc = rhs[:, j]
        for m in range(j):
            acc = acc - lower[:, j, m] * y[:, m]
        y[:, j] = acc / lower[:, j, j]
    gamma = np.empty((rows, k))
    for j in reversed(range(k)):
        acc = y[:, j]
        for m in range(j + 1, k):
            acc = acc - lower[:, m, j] * gamma[:, m]
        gamma[:, j] = acc / lower[:, j, j]
    gamma[~solved] = 0.0
    return gamma, solved


class AndersonMixer:
    """Windowed Anderson mixing for the ``rows`` chains of one fit.

    Row ``r`` of every buffer belongs to the ``r``-th active chain; the
    chain runner drops the rows of frozen chains with :meth:`compact`.
    """

    def __init__(
        self, rows: int, size: int, *, tol: float, window: int = DEFAULT_WINDOW
    ):
        if tol <= 0:
            raise ValidationError(f"tol must be positive, got {tol}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.tol = float(tol)
        self.window = int(window)
        # Pairs recorded per row since its last restart.
        self.count = np.zeros(rows, dtype=np.int64)
        self.f_last = np.zeros((rows, size))
        self.g_last = np.zeros((rows, size))
        self.delta_f = np.zeros((rows, self.window, size))
        self.delta_g = np.zeros((rows, self.window, size))
        self.gram = np.zeros((rows, self.window, self.window))

    @property
    def history_length(self) -> np.ndarray:
        """Iterate pairs per row the window spans (at most ``window + 1``)."""
        return np.minimum(self.count, self.window + 1)

    def restart(self, rows) -> None:
        """Drop the history of ``rows`` (a boolean mask or indices).

        Called when the Eq. 12 update moved a row's restart vector: the
        mixer models a *fixed* map, and extrapolating across the change
        would chase a stale fixed point.
        """
        self.count[rows] = 0

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the rows of ``keep`` (the chains still moving)."""
        for name in _ROW_STATE:
            setattr(self, name, getattr(self, name)[keep])

    def step(self, x_rows, g_rows):
        """Record one ``(x_prev, g_x)`` pair per row and mix.

        ``x_rows`` holds the previous accepted iterates and ``g_rows``
        the plain Algorithm 1 step at them, both C-contiguous ``(a, n)``
        blocks.  Accepted proposals overwrite their rows of ``g_rows`` in
        place.  Returns the boolean masks ``(accepted, rejected)``: a
        rejected row failed the safeguard and its history restarted.
        """
        untouched = np.zeros(len(g_rows), dtype=bool)
        f = np.subtract(g_rows, x_rows)
        pushing = self.count > 0
        if pushing.any():
            self._push(f - self.f_last, g_rows - self.g_last, pushing)
        self.f_last = f
        self.g_last[...] = g_rows
        self.count += 1
        depth = np.minimum(self.count - 1, self.window)
        # Exact limit: a row whose plain step already moved less than
        # tol sits on the fixed point; extrapolating would perturb it.
        proposing = (depth > 0) & (np.abs(f).sum(axis=1) >= self.tol)
        if not proposing.any():
            return untouched, untouched
        width = int(depth[proposing].max())
        gram = self.gram[:, :width, :width]
        rhs = np.einsum("akn,an->ak", self.delta_f[:, :width], f)
        if not (proposing.all() and (depth == width).all()):
            # Rows with a shorter history solve their leading block: the
            # identity rows padding it leave those bytes unchanged.
            valid = (np.arange(width) < depth[:, None]) & proposing[:, None]
            gram = np.where(valid[:, :, None] & valid[:, None, :], gram, np.eye(width))
            rhs = np.where(valid, rhs, 0.0)
        gamma, solved = cholesky_solve(gram, rhs)
        degenerate = proposing & ~solved
        self.count[degenerate] = 0
        proposing &= solved
        proposal = g_rows - np.einsum("ak,akn->an", gamma, self.delta_g[:, :width])
        safe, ok = safeguard_proposal(proposal)
        accepted = proposing & ok
        rejected = proposing & ~ok
        self.count[rejected] = 0
        g_rows[accepted] = safe[accepted]
        return accepted, rejected

    def _push(self, delta_f, delta_g, pushing) -> None:
        """Write the ``pushing`` rows' new differences into their ring slots.

        The new slot's Gram row is its dot products with the row's ring,
        read as one basic slice of every row (a non-pushing row's
        products are discarded).
        """
        slots = (self.count - 1) % self.window
        width = int(min(self.count[pushing].max(), self.window))
        if pushing.all() and (slots == slots[0]).all():
            rows, cols = slice(None), int(slots[0])
        else:
            rows = np.flatnonzero(pushing)
            cols = slots[rows]
        self.delta_f[rows, cols] = delta_f[rows]
        self.delta_g[rows, cols] = delta_g[rows]
        dots = np.einsum("an,akn->ak", delta_f, self.delta_f[:, :width])[rows]
        self.gram[rows, cols, :width] = dots
        self.gram[rows, :width, cols] = dots
