"""Tests for the solver registry, the mixer's restarts and the simplex safeguard."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.solvers import (
    PLAIN_SOLVER,
    SOLVER_NAMES,
    AndersonMixer,
    check_solver,
    make_solver,
    safeguard_proposal,
)


def guard(row):
    """The safeguard on one proposal: the safe row, or ``None`` if rejected."""
    safe, ok = safeguard_proposal(np.asarray(row, dtype=float)[None])
    return safe[0] if ok[0] else None


class TestCheckSolver:
    def test_vocabulary(self):
        assert SOLVER_NAMES == ("plain", "anderson")
        assert PLAIN_SOLVER == "plain"

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_accepts_registered_names(self, name):
        assert check_solver(name) == name

    @pytest.mark.parametrize("bad", ["newton", "", None, "ANDERSON", "auto"])
    def test_rejects_unknown_names(self, bad):
        with pytest.raises(ValidationError, match="solver must be one of"):
            check_solver(bad)


class TestMakeSolver:
    def test_plain_maps_to_none(self):
        assert make_solver("plain", tol=1e-8, rows=2, size=3) is None

    def test_accelerators_by_name(self):
        anderson = make_solver("anderson", tol=1e-8, rows=2, size=3)
        assert isinstance(anderson, AndersonMixer)
        assert anderson.delta_f.shape == (2, anderson.window, 3)

    def test_unknown_name_raises(self):
        with pytest.raises(ValidationError):
            make_solver("newton", tol=1e-8, rows=2, size=3)

    def test_nonpositive_tol_raises(self):
        with pytest.raises(ValidationError, match="tol must be positive"):
            make_solver("anderson", tol=0.0, rows=2, size=3)


class TestSafeguard:
    def test_simplex_vector_passes_unchanged(self):
        x = np.array([0.2, 0.3, 0.5])
        out = guard(x)
        np.testing.assert_allclose(out, x)

    def test_tiny_negative_drift_is_clipped_and_renormalised(self):
        x = np.array([0.5, 0.5, -1e-9])
        out = guard(x)
        assert out is not None
        assert float(out.min()) >= 0.0
        assert float(out.sum()) == pytest.approx(1.0)

    def test_real_negativity_is_rejected(self):
        assert guard([0.6, 0.6, -0.2]) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_rejected(self, bad):
        assert guard([0.5, bad]) is None

    @pytest.mark.parametrize("scale", [0.3, 2.5])
    def test_mass_outside_bounds_is_rejected(self, scale):
        x = scale * np.array([0.25, 0.25, 0.25, 0.25])
        assert guard(x) is None

    @pytest.mark.parametrize("scale", [0.6, 1.0, 1.8])
    def test_mass_inside_bounds_is_renormalised(self, scale):
        x = scale * np.array([0.25, 0.25, 0.25, 0.25])
        out = guard(x)
        assert float(out.sum()) == pytest.approx(1.0)

    def test_rows_are_judged_independently(self):
        rows = np.array(
            [[0.2, 0.3, 0.5], [0.6, 0.6, -0.2], [np.nan, 0.5, 0.5], [0.1, 0.1, 0.1]]
        )
        safe, ok = safeguard_proposal(rows)
        assert ok.tolist() == [True, False, False, False]
        assert safe[0].tobytes() == guard(rows[0]).tobytes()


def offer(mixer, x, g):
    """One single-row step; the accepted proposal or ``None``."""
    g_rows = np.array([g], dtype=float)
    accepted, _ = mixer.step(np.array([x], dtype=float), g_rows)
    return g_rows[0] if accepted[0] else None


class TestAcceleratorBase:
    def test_rejected_counts_and_restarts(self):
        solver = AndersonMixer(1, 2, tol=1e-8)
        offer(solver, [0.0, 1.0], [0.1, 0.9])
        assert solver.history_length[0] == 1  # history accumulated
        # The residual grew along the same direction: gamma = 1.5
        # extrapolates to [-0.3, 1.3], which the safeguard rejects.
        g_rows = np.array([[0.9, 0.1]])
        accepted, rejected = solver.step(np.array([[0.6, 0.4]]), g_rows)
        assert rejected.tolist() == [True] and not accepted.any()
        assert g_rows.tolist() == [[0.9, 0.1]]  # the plain step stands
        assert solver.history_length[0] == 0  # history dropped

    def test_map_changed_restarts_without_rejection(self):
        solver = AndersonMixer(1, 2, tol=1e-8)
        offer(solver, [0.5, 0.5], [0.4, 0.6])
        solver.restart(np.array([True]))
        assert solver.history_length[0] == 0
        # The restarted history needs two fresh pairs before it proposes.
        assert offer(solver, [0.4, 0.6], [0.3, 0.7]) is None
