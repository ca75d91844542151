"""Numerical verification of the paper's Theorem 3 condition.

Theorem 3 guarantees uniqueness of the stationary pair when **1 is not
an eigenvalue of the Jacobian** ``DT`` of the update map

.. math::

    T(x, z) = \\big((1-\\alpha-\\beta)\\, O \\bar\\times_1 x \\bar\\times_3 z
              + \\beta W x + \\alpha l,\\;\\; R \\bar\\times_1 x \\bar\\times_2 x\\big)

at any interior fixed point.  The paper leaves the condition abstract;
this module makes it *checkable* for a fitted model: build ``T`` with
the restart vector frozen at its converged value, differentiate it
numerically at the stationary pair, and inspect the spectrum.  A
spectral radius below 1 additionally certifies local linear convergence
at rate ``rho(DT)`` — which is why the Fig. 10 curves decay
geometrically.

Dense and O((n+m)^2) work per class: intended for small to medium
networks and for the property-test suite, not for production fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.features import feature_walk_matrix
from repro.core.labels import initial_label_vector, updated_label_vector
from repro.core.tmark import TMark
from repro.errors import NotFittedError, ValidationError
from repro.hin.graph import HIN
from repro.tensor.transition import build_transition_tensors


def tmark_update_map(hin: HIN, model: TMark, label_vec: np.ndarray):
    """The frozen-``l`` update map ``T([x; z]) -> [x'; z']`` as a callable.

    Uses the same operators a fit would build (including the implicit
    dangling mass, and the ``W`` of :func:`feature_walk_matrix`:
    factored, top-k or dense), with the Eq. 12 restart vector frozen at
    ``label_vec`` so the map is smooth and Theorem 3 applies.
    """
    o_tensor, r_tensor = build_transition_tensors(hin.tensor)
    w_matrix = feature_walk_matrix(
        hin.features,
        top_k=model.similarity_top_k,
        metric=model.similarity_metric,
    )
    n, m = hin.n_nodes, hin.n_relations
    alpha, beta = model.alpha, model.beta
    relational = 1.0 - alpha - beta

    def update(point: np.ndarray) -> np.ndarray:
        x = point[:n]
        z = point[n:]
        x_new = alpha * label_vec
        if relational > 0:
            x_new = x_new + relational * o_tensor.propagate(x, z)
        if beta > 0:
            x_new = x_new + beta * np.asarray(w_matrix @ x).ravel()
        z_new = r_tensor.propagate(x_new, x_new)
        return np.concatenate([x_new, z_new])

    return update


def numerical_jacobian(func, point: np.ndarray, *, eps: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of ``func`` at ``point``."""
    point = np.asarray(point, dtype=float)
    base_dim = point.size
    out_dim = np.asarray(func(point)).size
    jacobian = np.zeros((out_dim, base_dim))
    for idx in range(base_dim):
        bumped_up = point.copy()
        bumped_up[idx] += eps
        bumped_down = point.copy()
        bumped_down[idx] -= eps
        jacobian[:, idx] = (
            np.asarray(func(bumped_up)) - np.asarray(func(bumped_down))
        ) / (2 * eps)
    return jacobian


def _tangent_projector(n: int, m: int) -> np.ndarray:
    """Projector onto the simplex tangent space ``{sum dx = sum dz = 0}``.

    Theorem 3's map lives on ``Omega = simplex_n x simplex_m``; only the
    restriction of ``DT`` to this tangent space governs the on-domain
    dynamics.  The unrestricted Jacobian can carry spurious eigenvalues
    along the constraint-violating constant directions.
    """
    projector = np.eye(n + m)
    projector[:n, :n] -= 1.0 / n
    projector[n:, n:] -= 1.0 / m
    return projector


@dataclass(frozen=True)
class SpectrumReport:
    """Spectrum of ``DT`` at one class's stationary pair.

    ``eigenvalues`` / ``spectral_radius`` / ``distance_to_one`` refer to
    the Jacobian *restricted to the simplex tangent space* (the object
    Theorem 3 speaks about); ``raw_spectral_radius`` records the
    unrestricted operator for reference.
    """

    label: str
    eigenvalues: np.ndarray
    spectral_radius: float
    raw_spectral_radius: float
    #: Smallest distance from any (tangent) eigenvalue to 1.
    distance_to_one: float
    #: Residual ||T(p) - p||_1 at the point the Jacobian was taken.
    fixed_point_residual: float

    @property
    def uniqueness_condition_holds(self) -> bool:
        """Theorem 3's condition: 1 is not an eigenvalue of ``DT``."""
        return self.distance_to_one > 1e-6

    @property
    def locally_contractive(self) -> bool:
        """Tangent spectral radius below 1 (geometric convergence)."""
        return self.spectral_radius < 1.0


def fixed_point_spectrum(model: TMark, hin: HIN) -> list[SpectrumReport]:
    """Theorem 3 check for every class chain of a fitted model.

    The model must have been fitted on ``hin`` (same shapes).  For each
    class the restart vector is re-derived from the converged ``x`` so
    the frozen map has the model's stationary pair as its fixed point.
    """
    if model.result_ is None:
        raise NotFittedError("fit the model before analysing its fixed points")
    result = model.result_
    n, m = hin.n_nodes, hin.n_relations
    if result.node_scores.shape[0] != n or result.relation_scores.shape[0] != m:
        raise ValidationError("the fitted model does not match this HIN's shapes")

    reports = []
    for c, label in enumerate(result.label_names):
        x = result.node_scores[:, c]
        z = result.relation_scores[:, c]
        class_mask = hin.label_matrix[:, c]
        if model.update_labels and result.histories[c].accepted_history:
            label_vec = updated_label_vector(
                class_mask, x, model.label_threshold, mode=model.threshold_mode
            )
        else:
            label_vec = initial_label_vector(class_mask)
        update = tmark_update_map(hin, model, label_vec)
        point = np.concatenate([x, z])
        residual = float(np.abs(update(point) - point).sum())
        jacobian = numerical_jacobian(update, point)
        raw_radius = float(np.abs(np.linalg.eigvals(jacobian)).max())
        projector = _tangent_projector(n, m)
        restricted = projector @ jacobian @ projector
        eigenvalues = np.linalg.eigvals(restricted)
        distances = np.abs(eigenvalues - 1.0)
        reports.append(
            SpectrumReport(
                label=label,
                eigenvalues=eigenvalues,
                spectral_radius=float(np.abs(eigenvalues).max()),
                raw_spectral_radius=raw_radius,
                distance_to_one=float(distances.min()),
                fixed_point_residual=residual,
            )
        )
    return reports
