"""Tests for the solver protocol, registry and simplex safeguard."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.solvers import (
    PLAIN_SOLVER,
    SOLVER_NAMES,
    AdaptiveAccelerator,
    AndersonAccelerator,
    FixedPointAccelerator,
    check_solver,
    make_solver,
    safeguard_proposal,
)


class TestCheckSolver:
    def test_vocabulary(self):
        assert SOLVER_NAMES == ("plain", "anderson", "auto")
        assert PLAIN_SOLVER == "plain"

    @pytest.mark.parametrize("name", SOLVER_NAMES)
    def test_accepts_registered_names(self, name):
        assert check_solver(name) == name

    @pytest.mark.parametrize("bad", ["newton", "", None, "ANDERSON"])
    def test_rejects_unknown_names(self, bad):
        with pytest.raises(ValidationError, match="solver must be one of"):
            check_solver(bad)


class TestMakeSolver:
    def test_plain_maps_to_none(self):
        assert make_solver("plain", tol=1e-8) is None

    def test_accelerators_by_name(self):
        assert isinstance(make_solver("anderson", tol=1e-8), AndersonAccelerator)
        assert isinstance(make_solver("auto", tol=1e-8), AdaptiveAccelerator)

    def test_unknown_name_raises(self):
        with pytest.raises(ValidationError):
            make_solver("newton", tol=1e-8)

    def test_nonpositive_tol_raises(self):
        with pytest.raises(ValidationError, match="tol must be positive"):
            make_solver("anderson", tol=0.0)


class TestSafeguard:
    def test_simplex_vector_passes_unchanged(self):
        x = np.array([0.2, 0.3, 0.5])
        out = safeguard_proposal(x)
        np.testing.assert_allclose(out, x)

    def test_tiny_negative_drift_is_clipped_and_renormalised(self):
        x = np.array([0.5, 0.5, -1e-9])
        out = safeguard_proposal(x)
        assert out is not None
        assert float(out.min()) >= 0.0
        assert float(out.sum()) == pytest.approx(1.0)

    def test_real_negativity_is_rejected(self):
        assert safeguard_proposal(np.array([0.6, 0.6, -0.2])) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_rejected(self, bad):
        assert safeguard_proposal(np.array([0.5, bad])) is None

    @pytest.mark.parametrize("scale", [0.3, 2.5])
    def test_mass_outside_bounds_is_rejected(self, scale):
        x = scale * np.array([0.25, 0.25, 0.25, 0.25])
        assert safeguard_proposal(x) is None

    @pytest.mark.parametrize("scale", [0.6, 1.0, 1.8])
    def test_mass_inside_bounds_is_renormalised(self, scale):
        x = scale * np.array([0.25, 0.25, 0.25, 0.25])
        out = safeguard_proposal(x)
        assert float(out.sum()) == pytest.approx(1.0)


class TestAcceleratorBase:
    def test_rejected_counts_and_restarts(self):
        solver = AndersonAccelerator(tol=1e-8)
        solver.propose(np.array([0.5, 0.5]), np.array([0.4, 0.6]), t=1, residuals=[])
        assert solver._xs  # history accumulated
        solver.rejected()
        assert not solver._xs and not solver._gs  # history dropped

    def test_map_changed_restarts_without_rejection(self):
        solver = AndersonAccelerator(tol=1e-8)
        solver.propose(np.array([0.5, 0.5]), np.array([0.4, 0.6]), t=1, residuals=[])
        solver.map_changed()
        assert not solver._xs and not solver._gs
        # The restarted history needs two fresh pairs before it proposes.
        assert (
            solver.propose(np.array([0.4, 0.6]), np.array([0.3, 0.7]), t=2, residuals=[])
            is None
        )

    def test_base_propose_is_abstract(self):
        base = FixedPointAccelerator(tol=1e-8)
        with pytest.raises(NotImplementedError):
            base.propose(np.zeros(2), np.zeros(2), t=1, residuals=[])

    def test_active_name_defaults_to_name(self):
        assert AndersonAccelerator(tol=1e-8).active_name == "anderson"
