"""Batched T-Mark fit vs the sequential per-class reference.

``TMark.fit`` advances all class chains in lockstep through the batched
kernels; :func:`run_chain` is the sequential Algorithm 1 loop kept as
the reference.  Because the kernels are bitwise column-independent, the
two paths agree exactly whenever the feature walk uses a sparse ``W``
(``similarity_top_k``) or no feature walk at all.  With a dense ``W``
the BLAS matrix-matrix product may reassociate sums differently than
the matrix-vector product, so those configurations are compared at
machine precision instead — iteration counts and label-update history
still match exactly.
"""

import numpy as np
import pytest

from repro.core.convergence import ChainHistory
from repro.core.labels import initial_label_vector, updated_label_vector
from repro.core.tmark import TMark, build_operators
from repro.datasets import make_worked_example
from repro.utils.simplex import project_to_simplex, uniform_distribution
from tests.conftest import small_labeled_hin


def run_chain(model, o_tensor, r_tensor, w_matrix, class_mask, *, start=None):
    """One per-class chain of Algorithm 1; returns ``(x, z, history)``.

    The sequential reference the chain driver
    (:func:`repro.core.chains.run_chains`) is checked against: both
    share the same propagation kernels (``propagate`` delegates to
    ``propagate_many``), so their outputs agree bit-for-bit.
    ``start`` optionally provides a warm ``(x0, z0)`` pair.
    """
    m = r_tensor.shape[2]
    alpha, beta = model.alpha, model.beta
    relational_weight = model._relational_weight

    label_vec = initial_label_vector(class_mask)
    if start is None:
        x = label_vec.copy()
        z = uniform_distribution(m)
    else:
        x = project_to_simplex(np.asarray(start[0], dtype=float))
        z = project_to_simplex(np.asarray(start[1], dtype=float))
    history = ChainHistory(tol=model.tol, n_anchors=int(class_mask.sum()))
    for t in range(1, model.max_iter + 1):
        if model.update_labels and t > 2:
            label_vec, n_accepted = updated_label_vector(
                class_mask,
                x,
                model.label_threshold,
                mode=model.threshold_mode,
                return_accepted=True,
            )
            history.accepted_history.append(n_accepted)
        x_new = alpha * label_vec
        if relational_weight > 0.0:
            x_new = x_new + relational_weight * o_tensor.propagate(x, z)
        if beta > 0.0:
            x_new = x_new + beta * (w_matrix @ x)
        x_new = project_to_simplex(np.asarray(x_new).ravel())
        z_new = project_to_simplex(r_tensor.propagate(x_new, x_new))
        rho = history.record(x_new, x, z_new, z)
        x, z = x_new, z_new
        if rho < model.tol:
            break
    if not history.converged:
        history.exhausted = True
    return x, z, history


def sequential_reference(hin, model_kwargs):
    """Run Algorithm 1 class by class via :func:`run_chain`."""
    model = TMark(**model_kwargs)
    operators = build_operators(
        hin,
        similarity_top_k=model.similarity_top_k,
        similarity_metric=model.similarity_metric,
    )
    label_matrix = np.asarray(hin.label_matrix, dtype=bool)
    columns = []
    for c in range(label_matrix.shape[1]):
        columns.append(
            run_chain(
                model,
                operators.o_tensor,
                operators.r_tensor,
                operators.w_matrix,
                label_matrix[:, c],
            )
        )
    node_scores = np.column_stack([x for x, _, _ in columns])
    relation_scores = np.column_stack([z for _, z, _ in columns])
    histories = [h for _, _, h in columns]
    return node_scores, relation_scores, histories


def batched_fit(hin, model_kwargs):
    model = TMark(**model_kwargs).fit(hin)
    result = model.result_
    return result.node_scores, result.relation_scores, result.histories


def assert_histories_equal(batched, reference):
    for hb, hr in zip(batched, reference):
        assert hb.n_iterations == hr.n_iterations
        assert hb.accepted_history == hr.accepted_history
        assert hb.n_anchors == hr.n_anchors
        assert hb.converged == hr.converged


@pytest.fixture(scope="module")
def synthetic_hin():
    base = small_labeled_hin(seed=2, n=40, q=4, m=3)
    rng = np.random.default_rng(0)
    return base.masked(rng.random(base.n_nodes) < 0.4)


EXACT_CONFIGS = {
    "relational_only": dict(alpha=0.9, gamma=0.0),
    "sparse_w_mixed": dict(alpha=0.9, gamma=0.5, similarity_top_k=5),
    "sparse_w_no_update": dict(
        alpha=0.9, gamma=0.5, similarity_top_k=5, update_labels=False
    ),
    "sparse_w_absolute": dict(
        alpha=0.9,
        gamma=0.5,
        similarity_top_k=5,
        threshold_mode="absolute",
        label_threshold=0.99,
    ),
}


class TestWorkedExample:
    def test_exact_match(self):
        hin = make_worked_example()
        bx, bz, bh = batched_fit(hin, dict(alpha=0.8, gamma=0.5))
        rx, rz, rh = sequential_reference(hin, dict(alpha=0.8, gamma=0.5))
        assert np.array_equal(bx, rx)
        assert np.array_equal(bz, rz)
        assert_histories_equal(bh, rh)


class TestSyntheticHin:
    @pytest.mark.parametrize("name", sorted(EXACT_CONFIGS))
    def test_exact_match(self, synthetic_hin, name):
        kwargs = EXACT_CONFIGS[name]
        bx, bz, bh = batched_fit(synthetic_hin, kwargs)
        rx, rz, rh = sequential_reference(synthetic_hin, kwargs)
        assert np.array_equal(bx, rx)
        assert np.array_equal(bz, rz)
        assert_histories_equal(bh, rh)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(alpha=0.9, gamma=0.5), dict(alpha=0.9, gamma=1.0)],
        ids=["dense_w_mixed", "dense_w_features_only"],
    )
    def test_dense_w_machine_precision(self, synthetic_hin, kwargs):
        bx, bz, bh = batched_fit(synthetic_hin, kwargs)
        rx, rz, rh = sequential_reference(synthetic_hin, kwargs)
        assert np.allclose(bx, rx, rtol=0, atol=1e-12)
        assert np.allclose(bz, rz, rtol=0, atol=1e-12)
        assert_histories_equal(bh, rh)

    def test_columns_freeze_independently(self, synthetic_hin):
        """Per-class iteration counts survive the lockstep advance."""
        _, _, histories = batched_fit(
            synthetic_hin, dict(alpha=0.8, gamma=0.0, tol=1e-10)
        )
        iterations = [h.n_iterations for h in histories]
        assert len(set(iterations)) > 1  # classes converge at their own pace
        assert all(h.converged for h in histories)

    def test_operators_path_identical(self, synthetic_hin):
        """Precomputed operators change nothing in the scores."""
        kwargs = dict(alpha=0.9, gamma=0.5, similarity_top_k=5)
        model = TMark(**kwargs)
        operators = build_operators(
            synthetic_hin,
            similarity_top_k=5,
            similarity_metric=model.similarity_metric,
        )
        with_ops = TMark(**kwargs).fit(synthetic_hin, operators=operators)
        without = TMark(**kwargs).fit(synthetic_hin)
        assert np.array_equal(
            with_ops.result_.node_scores, without.result_.node_scores
        )
        assert np.array_equal(
            with_ops.result_.relation_scores, without.result_.relation_scores
        )
