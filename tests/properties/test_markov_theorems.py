"""Property tests for the paper's theoretical claims (section 5).

* Theorem 1 — the T-Mark update maps the probability simplex into
  itself, for any O, R, W, l built per section 4 and any alpha, beta.
* Theorem 2 — on irreducible tensors the stationary distributions are
  strictly positive.
* Theorem 3 / section 6.6 — the iteration converges and the limit is a
  fixed point of the update; a plain chain of the frozen map decays at
  the spectral radius of the update's Jacobian there, which is what
  ``obs.health``'s decay rate reads from the residuals.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.features import feature_transition_matrix
from repro.core.labels import initial_label_vector
from repro.tensor.transition import build_transition_tensors, is_irreducible
from repro.utils.simplex import is_distribution
from tests.conftest import random_sparse_tensor


@st.composite
def tensor_and_vectors(draw):
    """A random tensor plus random simplex vectors and parameters."""
    seed = draw(st.integers(0, 10**6))
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 4))
    density = draw(st.floats(0.05, 0.6))
    rng = np.random.default_rng(seed)
    tensor = random_sparse_tensor(rng, n=n, m=m, density=density)
    x = rng.dirichlet(np.ones(n))
    z = rng.dirichlet(np.ones(m))
    alpha = draw(st.floats(0.05, 0.9))
    gamma = draw(st.floats(0.0, 1.0))
    beta = gamma * (1.0 - alpha)
    n_labeled = draw(st.integers(1, n))
    mask = np.zeros(n, dtype=bool)
    mask[rng.choice(n, size=n_labeled, replace=False)] = True
    features = rng.uniform(0, 1, size=(n, 3))
    return tensor, x, z, alpha, beta, mask, features


class TestTheorem1SimplexClosure:
    @settings(max_examples=40, deadline=None)
    @given(tensor_and_vectors())
    def test_update_stays_on_simplex(self, bundle):
        tensor, x, z, alpha, beta, mask, features = bundle
        o_tensor, r_tensor = build_transition_tensors(tensor)
        w_matrix = feature_transition_matrix(features)
        label_vec = initial_label_vector(mask)
        x_new = (
            (1.0 - alpha - beta) * o_tensor.propagate(x, z)
            + beta * (w_matrix @ x)
            + alpha * label_vec
        )
        z_new = r_tensor.propagate(x_new / x_new.sum(), None)
        assert is_distribution(x_new, tol=1e-7)
        assert is_distribution(z_new, tol=1e-7)

    @settings(max_examples=40, deadline=None)
    @given(tensor_and_vectors())
    def test_o_propagation_alone_is_stochastic(self, bundle):
        tensor, x, z, *_ = bundle
        o_tensor, r_tensor = build_transition_tensors(tensor)
        assert is_distribution(o_tensor.propagate(x, z), tol=1e-7)
        assert is_distribution(r_tensor.propagate(x), tol=1e-7)


class TestTheorem2Positivity:
    def _irreducible_hin(self, seed, n=12, m=2):
        """A labeled HIN whose aggregated graph is a cycle + extras."""
        from repro.hin.builder import HINBuilder

        rng = np.random.default_rng(seed)
        builder = HINBuilder(["a", "b"])
        for idx in range(n):
            builder.add_node(
                f"v{idx}",
                features=rng.uniform(0.1, 1.0, size=3),
                labels=["a" if idx % 2 == 0 else "b"],
            )
        for idx in range(n):
            builder.add_link(f"v{idx}", f"v{(idx + 1) % n}", "r0", directed=True)
        for _ in range(2 * n):
            u, v = rng.choice(n, size=2, replace=False)
            builder.add_link(f"v{u}", f"v{v}", f"r{rng.integers(0, m)}")
        return builder.build()

    @pytest.mark.parametrize("seed", range(5))
    def test_stationary_distributions_positive(self, seed):
        from repro.core.tmark import TMark

        hin = self._irreducible_hin(seed)
        assert is_irreducible(hin.tensor)
        mask = np.zeros(hin.n_nodes, dtype=bool)
        mask[:4] = True
        model = TMark(alpha=0.6, gamma=0.3, max_iter=300).fit(hin.masked(mask))
        assert np.all(model.result_.node_scores > 0)
        assert np.all(model.result_.relation_scores > 0)


class TestTheorem3Convergence:
    @pytest.mark.parametrize("seed", range(5))
    def test_multirank_limit_is_fixed_point(self, seed):
        from repro.core.multirank import MultiRank

        rng = np.random.default_rng(seed)
        tensor = random_sparse_tensor(rng, n=8, m=3, density=0.4)
        result = MultiRank(tol=1e-13, max_iter=2000).rank(tensor)
        o_tensor, r_tensor = build_transition_tensors(tensor)
        assert np.allclose(
            o_tensor.propagate(result.x, result.z), result.x, atol=1e-9
        )
        assert np.allclose(
            r_tensor.propagate(result.x, result.x), result.z, atol=1e-9
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_tmark_frozen_limit_is_fixed_point(self, seed):
        """With the label update off, the converged pair satisfies
        Eq. 13 / Eq. 14 exactly."""
        from repro.core.tensorrrcc import TensorRrCc
        from tests.conftest import small_labeled_hin

        hin = small_labeled_hin(seed=seed, n=24, q=2)
        mask = np.zeros(hin.n_nodes, dtype=bool)
        mask[::2] = True
        train = hin.masked(mask)
        model = TensorRrCc(alpha=0.5, gamma=0.4, tol=1e-13, max_iter=2000).fit(train)
        o_tensor, r_tensor = build_transition_tensors(train.tensor)
        w_matrix = feature_transition_matrix(train.features)
        alpha, beta = model.alpha, model.beta
        for c in range(train.n_labels):
            x = model.result_.node_scores[:, c]
            z = model.result_.relation_scores[:, c]
            label_vec = initial_label_vector(train.label_matrix[:, c])
            x_next = (
                (1 - alpha - beta) * o_tensor.propagate(x, z)
                + beta * (w_matrix @ x)
                + alpha * label_vec
            )
            assert np.allclose(x_next, x, atol=1e-8)
            assert np.allclose(r_tensor.propagate(x), z, atol=1e-8)

    def test_residuals_reach_tolerance(self):
        from repro.core.tmark import TMark
        from tests.conftest import small_labeled_hin

        hin = small_labeled_hin(seed=3)
        mask = np.zeros(hin.n_nodes, dtype=bool)
        mask[::3] = True
        model = TMark(tol=1e-10, max_iter=500).fit(hin.masked(mask))
        for history in model.result_.histories:
            assert history.converged
            assert history.final_residual < 1e-10


class TestTheorem3SpectralCondition:
    """Numerical Theorem 3: 1 is not an eigenvalue of DT at the fixed
    point, and the map is locally contractive (see repro.analysis.theory)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_uniqueness_condition_on_random_hins(self, seed):
        from repro.analysis.theory import fixed_point_spectrum
        from repro.core.tensorrrcc import TensorRrCc
        from tests.conftest import small_labeled_hin

        hin = small_labeled_hin(seed=seed, n=14, q=2)
        mask = np.zeros(hin.n_nodes, dtype=bool)
        mask[::2] = True
        train = hin.masked(mask)
        model = TensorRrCc(alpha=0.5, gamma=0.3, tol=1e-13, max_iter=3000).fit(train)
        for report in fixed_point_spectrum(model, train):
            assert report.fixed_point_residual < 1e-8
            assert report.uniqueness_condition_holds
            assert report.locally_contractive


class TestTheorem3DecayRate:
    """Health's decay rate measures the operator: it lies near rho(DT).

    ``obs.health`` estimates each chain's decay rate from its residuals
    alone; Theorem 3's spectral radius of the update map's Jacobian at
    the fixed point (``analysis.theory.fixed_point_spectrum``) is the
    rate a linearly converging chain decays at.  The two must agree on
    plain fits of the frozen map.  Scope: fits with
    ``update_labels=False`` and ``solver="plain"`` only.  The Eq. 12
    label update changes the restart vector between iterations, and
    Anderson mixing replaces the map's own steps, so neither chain
    decays at rho(DT).
    """

    PARAMS = [(0.8, 0.5), (0.3, 0.0), (0.1, 0.5)]

    @staticmethod
    def rates_and_radii(hin, alpha, gamma):
        from repro.analysis.theory import fixed_point_spectrum
        from repro.core.tmark import TMark
        from repro.obs import ListRecorder

        recorder = ListRecorder(probes=False)
        model = TMark(
            alpha=alpha, gamma=gamma, update_labels=False, tol=1e-13, max_iter=2000
        ).fit(hin, recorder=recorder)
        rates = [e["decay_rate"] for e in recorder.events_of("chain_health")]
        radii = [r.spectral_radius for r in fixed_point_spectrum(model, hin)]
        assert len(rates) == len(radii) == hin.n_labels
        return np.array(rates), np.array(radii)

    @pytest.mark.parametrize("alpha, gamma", PARAMS)
    def test_worked_example(self, worked_example, alpha, gamma):
        rates, radii = self.rates_and_radii(worked_example, alpha, gamma)
        # Every class was within 0.003 when this was pinned.
        assert np.abs(rates - radii).max() < 0.005

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("alpha, gamma", PARAMS)
    def test_synthetic_hin(self, seed, alpha, gamma):
        from tests.conftest import small_labeled_hin

        hin = small_labeled_hin(seed=seed, n=60, q=3)
        mask = np.zeros(hin.n_nodes, dtype=bool)
        mask[::3] = True
        rates, radii = self.rates_and_radii(hin.masked(mask), alpha, gamma)
        # Within 0.027 on these nine fits when this was pinned.
        assert np.abs(rates - radii).max() < 0.04
