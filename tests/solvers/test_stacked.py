"""The stacked Anderson step against a single-row reference of the same algorithm.

:class:`ReferenceRow` runs the mixing of :mod:`repro.solvers.anderson`
for one chain with plain Python lists and scalar arithmetic: its window
columns in ring-slot order, a Gram matrix recomputed from them, a scalar
Cholesky solve and the original single-vector safeguard.  Every
floating-point operation happens in the order the stacked mixer runs it,
so a stacked row must match its reference byte for byte — whatever
other rows share the block, in whatever order, with whatever history.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import AndersonMixer
from repro.solvers.anderson import PIVOT_RTOL, cholesky_solve
from repro.solvers.base import SAFEGUARD_MASS_BOUNDS, SAFEGUARD_NEGATIVE_TOL


def reference_safeguard(proposal):
    """The single-vector safeguard: the safe vector, or ``None``."""
    if not np.all(np.isfinite(proposal)):
        return None
    if float(proposal.min()) < -SAFEGUARD_NEGATIVE_TOL:
        return None
    clipped = np.clip(proposal, 0.0, None)
    total = float(clipped.sum())
    low, high = SAFEGUARD_MASS_BOUNDS
    if not low <= total <= high:
        return None
    return clipped / total


def reference_cholesky(gram, rhs):
    """Scalar Cholesky solve of one system; ``None`` on a degenerate pivot."""
    k = len(rhs)
    lower = [[0.0] * k for _ in range(k)]
    for j in range(k):
        pivot = gram[j][j]
        for m in range(j):
            pivot = pivot - lower[j][m] * lower[j][m]
        if not pivot > PIVOT_RTOL * gram[j][j]:
            return None
        diag = math.sqrt(pivot)
        lower[j][j] = diag
        for i in range(j + 1, k):
            entry = gram[i][j]
            for m in range(j):
                entry = entry - lower[i][m] * lower[j][m]
            lower[i][j] = entry / diag
    y = [0.0] * k
    for j in range(k):
        acc = rhs[j]
        for m in range(j):
            acc = acc - lower[j][m] * y[m]
        y[j] = acc / lower[j][j]
    gamma = [0.0] * k
    for j in reversed(range(k)):
        acc = y[j]
        for m in range(j + 1, k):
            acc = acc - lower[m][j] * gamma[m]
        gamma[j] = acc / lower[j][j]
    return gamma


class ReferenceRow:
    """Anderson mixing for one chain, one pair at a time."""

    def __init__(self, tol, window):
        self.tol, self.window = tol, window
        self.slots = [None] * window
        self.count = 0
        self.f_last = self.g_last = None

    def restart(self):
        self.count = 0

    def step(self, x, g):
        """``("none" | "accepted" | "rejected", iterate)`` for one pair."""
        f = g - x
        if self.count > 0:
            slot = (self.count - 1) % self.window
            self.slots[slot] = (f - self.f_last, g - self.g_last)
        self.f_last, self.g_last = f, g.copy()
        self.count += 1
        k = min(self.count - 1, self.window)
        if k == 0 or float(np.abs(f).sum()) < self.tol:
            return "none", g
        delta_f = [self.slots[j][0] for j in range(k)]
        delta_g = np.array([self.slots[j][1] for j in range(k)])
        gram = [
            [float(np.einsum("n,n->", delta_f[i], delta_f[j])) for j in range(k)]
            for i in range(k)
        ]
        rhs = [float(np.einsum("n,n->", delta_f[j], f)) for j in range(k)]
        gamma = reference_cholesky(gram, rhs)
        if gamma is None:
            self.count = 0
            return "none", g
        proposal = g - np.einsum("k,kn->n", np.array(gamma), delta_g)
        safe = reference_safeguard(proposal)
        if safe is None:
            self.count = 0
            return "rejected", g
        return "accepted", safe


def contraction(rng, n):
    """A random mass-preserving linear map with rate in [0.5, 0.99]."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(-0.99, 0.99, size=n) * rng.uniform(0.5, 1.0)
    centre = np.eye(n) - 1.0 / n
    a = centre @ basis @ np.diag(eigs) @ basis.T @ centre
    x_star = rng.dirichlet(np.ones(n))
    b = x_star - a @ x_star
    return lambda x: a @ x + b


def run_block(seed, n_rows, n, window, steps, restart_p, freeze_p):
    """Drive one stacked mixer and per-row references with the same pairs.

    Rows restart and freeze at random; the block's row order is a random
    permutation of the chains.  Returns how many accepted, rejected and
    silent row-steps were compared.
    """
    rng = np.random.default_rng(seed)
    maps = [contraction(rng, n) for _ in range(n_rows)]
    xs = [rng.dirichlet(np.ones(n)) for _ in range(n_rows)]
    order = list(rng.permutation(n_rows))
    tol = 1e-12
    mixer = AndersonMixer(n_rows, n, tol=tol, window=window)
    refs = [ReferenceRow(tol, window) for _ in range(n_rows)]
    tally = {"none": 0, "accepted": 0, "rejected": 0}
    for t in range(1, steps + 1):
        if not order:
            break
        moved = rng.random(len(order)) < restart_p
        mixer.restart(moved)
        for idx in np.flatnonzero(moved):
            refs[order[idx]].restart()
        x_rows = np.array([xs[c] for c in order])
        g_rows = np.array([maps[c](xs[c]) for c in order])
        plain = g_rows.copy()
        accepted, rejected = mixer.step(x_rows, g_rows)
        for idx, c in enumerate(order):
            outcome, expected = refs[c].step(xs[c], plain[idx])
            assert bool(accepted[idx]) == (outcome == "accepted"), (t, c)
            assert bool(rejected[idx]) == (outcome == "rejected"), (t, c)
            assert g_rows[idx].tobytes() == expected.tobytes(), (t, c)
            assert mixer.count[idx] == refs[c].count
            tally[outcome] += 1
            xs[c] = g_rows[idx]
        keep = rng.random(len(order)) >= freeze_p
        if not keep.all():
            mixer.compact(keep)
            order = [c for c, k in zip(order, keep) if k]
    return tally


class TestAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(1, 6),
        n=st.integers(2, 40),
        window=st.integers(1, 5),
        restart_p=st.sampled_from([0.0, 0.1, 0.4]),
        freeze_p=st.sampled_from([0.0, 0.05, 0.2]),
    )
    def test_rows_match_their_reference(
        self, seed, n_rows, n, window, restart_p, freeze_p
    ):
        run_block(seed, n_rows, n, window, 25, restart_p, freeze_p)

    def test_scenarios_exercise_every_outcome(self):
        totals = {"none": 0, "accepted": 0, "rejected": 0}
        for seed in range(12):
            for outcome, count in run_block(seed, 4, 10, 3, 30, 0.1, 0.05).items():
                totals[outcome] += count
        assert all(totals.values()), totals

    def test_ring_wraps_past_the_window(self):
        # No restarts or freezes: every row writes past slot w - 1 and
        # keeps matching the reference's slot-order window.
        tally = run_block(3, 3, 16, 2, 20, 0.0, 0.0)
        assert tally["accepted"] > 3 * 2

    def test_row_alone_equals_row_in_a_block(self):
        rng = np.random.default_rng(5)
        n, rows = 9, 4
        maps = [contraction(rng, n) for _ in range(rows)]
        starts = [rng.dirichlet(np.ones(n)) for _ in range(rows)]
        block = AndersonMixer(rows, n, tol=1e-12)
        alone = AndersonMixer(1, n, tol=1e-12)
        xs = list(starts)
        x0 = starts[2]
        for t in range(1, 15):
            if t == 6:
                block.restart([0, 3])  # other rows' histories diverge
            x_rows = np.array(xs)
            g_rows = np.array([h(x) for h, x in zip(maps, xs)])
            block.step(x_rows, g_rows)
            g_alone = maps[2](x0)[None].copy()
            alone.step(x0[None], g_alone)
            assert g_rows[2].tobytes() == g_alone[0].tobytes()
            xs, x0 = list(g_rows), g_alone[0]


def offer_block(mixer, pairs):
    x_rows = np.array([x for x, _ in pairs], dtype=float)
    g_rows = np.array([g for _, g in pairs], dtype=float)
    accepted, rejected = mixer.step(x_rows, g_rows)
    return g_rows, accepted, rejected


class TestDegenerateHistory:
    X = [0.25, 0.25, 0.25, 0.25]
    # Residuals f_t = g_t - x grow by the same dyadic step d each time,
    # so the second difference column duplicates the first exactly.
    G = [
        [0.375, 0.125, 0.25, 0.25],
        [0.4375, 0.0625, 0.25, 0.25],
        [0.5, 0.0, 0.25, 0.25],
    ]

    def test_duplicated_difference_proposes_nothing_and_restarts(self):
        mixer = AndersonMixer(1, 4, tol=1e-12)
        offer_block(mixer, [(self.X, self.G[0])])
        _, accepted, _ = offer_block(mixer, [(self.X, self.G[1])])
        assert accepted.all()  # one column: a regular solve
        g_rows, accepted, rejected = offer_block(mixer, [(self.X, self.G[2])])
        assert not accepted.any() and not rejected.any()
        assert g_rows.tolist() == [self.G[2]]  # the plain step, no NaN
        assert mixer.history_length.tolist() == [0]

    def test_zero_difference_proposes_nothing_and_restarts(self):
        mixer = AndersonMixer(1, 4, tol=1e-12)
        offer_block(mixer, [(self.X, self.G[0])])
        g_rows, accepted, _ = offer_block(mixer, [(self.X, self.G[0])])
        assert not accepted.any()
        assert np.isfinite(g_rows).all()
        assert mixer.history_length.tolist() == [0]

    def test_degenerate_row_leaves_its_neighbours_alone(self):
        mixer = AndersonMixer(2, 4, tol=1e-12)
        other = [[0.3, 0.2, 0.25, 0.25], [0.28, 0.22, 0.25, 0.25], [0.27, 0.23, 0.26, 0.24]]
        for t in range(3):
            offer_block(mixer, [(self.X, self.G[t]), (self.X, other[t])])
        assert mixer.history_length.tolist() == [0, 3]

    def test_cholesky_flags_only_the_degenerate_row(self):
        gram = np.array([[[4.0, 2.0], [2.0, 3.0]], [[1.0, 1.0], [1.0, 1.0]]])
        rhs = np.array([[1.0, 2.0], [1.0, 1.0]])
        gamma, solved = cholesky_solve(gram, rhs)
        assert solved.tolist() == [True, False]
        np.testing.assert_allclose(gamma[0], np.linalg.solve(gram[0], rhs[0]))
        assert gamma[1].tolist() == [0.0, 0.0]


class TestSafeguardRowByRow:
    X = [0.0, 1.0]
    G1 = [0.1, 0.9]

    def test_each_rule_rejects_only_its_row(self):
        # Step 2 extrapolates g2 - 1.5 (g2 - g1) for the first two rows:
        # [-0.3, 1.3] (negative entry) and, scaled by 3, a mass-3 row.
        mixer = AndersonMixer(3, 2, tol=1e-12)
        offer_block(
            mixer,
            [(self.X, self.G1), ([0.0, 3.0], [0.3, 2.7]), ([0.5, 0.5], [0.45, 0.55])],
        )
        g_rows, accepted, rejected = offer_block(
            mixer,
            [([0.6, 0.4], [0.9, 0.1]), ([1.8, 1.2], [2.7, 0.3]),
             ([0.45, 0.55], [0.42, 0.58])],
        )
        assert rejected.tolist() == [True, True, False]
        assert accepted.tolist() == [False, False, True]
        assert g_rows[:2].tolist() == [[0.9, 0.1], [2.7, 0.3]]
        assert mixer.history_length.tolist() == [0, 0, 2]
        assert float(g_rows[2].sum()) == 1.0
