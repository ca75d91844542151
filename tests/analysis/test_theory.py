"""Tests for the numerical Theorem 3 verification."""

import numpy as np
import pytest

from repro.analysis.theory import (
    fixed_point_spectrum,
    numerical_jacobian,
    tmark_update_map,
)
from repro.core import TensorRrCc, TMark
from repro.core.features import walk_matrix_form
from repro.core.tmark import build_operators
from repro.errors import NotFittedError
from tests.conftest import small_labeled_hin


class TestNumericalJacobian:
    def test_linear_map_exact(self):
        matrix = np.array([[2.0, 1.0], [0.0, -3.0]])
        jac = numerical_jacobian(lambda p: matrix @ p, np.array([0.3, 0.7]))
        assert np.allclose(jac, matrix, atol=1e-6)

    def test_quadratic_map(self):
        jac = numerical_jacobian(lambda p: np.array([p[0] ** 2]), np.array([3.0]))
        assert jac[0, 0] == pytest.approx(6.0, abs=1e-5)


class TestUpdateMap:
    def test_fixed_point_of_frozen_chain(self):
        """TensorRrCc's converged pair is a fixed point of the map."""
        hin = small_labeled_hin(seed=2, n=20, q=2)
        mask = np.zeros(hin.n_nodes, dtype=bool)
        mask[::2] = True
        train = hin.masked(mask)
        model = TensorRrCc(alpha=0.6, gamma=0.3, tol=1e-13, max_iter=2000).fit(train)
        from repro.core.labels import initial_label_vector

        for c in range(train.n_labels):
            label_vec = initial_label_vector(train.label_matrix[:, c])
            update = tmark_update_map(train, model, label_vec)
            point = np.concatenate(
                [
                    model.result_.node_scores[:, c],
                    model.result_.relation_scores[:, c],
                ]
            )
            assert np.abs(update(point) - point).sum() < 1e-9


class TestMapWalksTheFitsW:
    """The map's ``W`` term is the ``W`` a fit walks, byte for byte."""

    @pytest.mark.parametrize(
        "top_k, form", [(None, "factored"), (4, "sparse")], ids=["factored", "topk"]
    )
    def test_w_term_equals_build_operators(self, top_k, form):
        hin = small_labeled_hin(seed=7, n=24, q=2)
        # Non-negative features: the cosine W factors exactly.
        hin = hin.derive(features=np.abs(hin.features))
        # gamma=1 leaves no relational term, and a zero restart vector
        # no label term: the map's x block is beta * (W @ x).
        model = TMark(alpha=0.5, gamma=1.0, similarity_top_k=top_k)
        w_matrix = build_operators(hin, similarity_top_k=top_k).w_matrix
        assert walk_matrix_form(w_matrix)[0] == form
        n = hin.n_nodes
        x = np.random.default_rng(0).dirichlet(np.ones(n))
        point = np.concatenate([x, np.full(hin.n_relations, 1.0 / hin.n_relations)])
        update = tmark_update_map(hin, model, np.zeros(n))
        assert update(point)[:n].tobytes() == (model.beta * (w_matrix @ x)).tobytes()


class TestFixedPointSpectrum:
    @pytest.fixture(scope="class")
    def fitted(self):
        hin = small_labeled_hin(seed=3, n=18, q=2)
        mask = np.zeros(hin.n_nodes, dtype=bool)
        mask[::2] = True
        train = hin.masked(mask)
        model = TensorRrCc(alpha=0.6, gamma=0.3, tol=1e-13, max_iter=2000).fit(train)
        return train, model

    def test_theorem3_condition_holds(self, fitted):
        """On a well-behaved HIN, 1 is not an eigenvalue of DT."""
        train, model = fitted
        for report in fixed_point_spectrum(model, train):
            assert report.fixed_point_residual < 1e-8
            assert report.uniqueness_condition_holds

    def test_contraction_explains_convergence(self, fitted):
        """The spectral radius is < 1 — the geometric decay of Fig. 10."""
        train, model = fitted
        for report in fixed_point_spectrum(model, train):
            assert report.locally_contractive
            # The x block alone contracts like (1 - alpha), but the
            # quadratic z coupling (dz'/dx ~ 2 R x) pushes the joint
            # spectral radius close to — yet strictly below — 1.
            assert report.spectral_radius < 1.0

    def test_tmark_with_update_also_analysable(self):
        hin = small_labeled_hin(seed=4, n=16, q=2)
        mask = np.zeros(hin.n_nodes, dtype=bool)
        mask[::2] = True
        train = hin.masked(mask)
        model = TMark(alpha=0.7, gamma=0.3, tol=1e-12, max_iter=1000).fit(train)
        reports = fixed_point_spectrum(model, train)
        for report in reports:
            # The frozen map reproduces the stationary pair closely.
            assert report.fixed_point_residual < 1e-6

    def test_requires_fit(self):
        hin = small_labeled_hin(seed=5, n=12, q=2)
        with pytest.raises(NotFittedError):
            fixed_point_spectrum(TMark(), hin)

    def test_shape_mismatch_rejected(self, fitted):
        train, model = fitted
        other = small_labeled_hin(seed=6, n=10, q=2)
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            fixed_point_spectrum(model, other)
