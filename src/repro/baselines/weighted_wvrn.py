"""Homophily-weighted wvRN — a diagnostic competitor.

wvRN+RL treats every link type equally; T-Mark's central claim is that
*learning* per-relation weights is what pays.  This variant isolates the
claim: it estimates each relation's homophily on the training labels
(the fraction of its train-train links joining same-class nodes, shrunk
toward chance by a Beta prior) and weights the merged graph by the
estimated *excess* homophily before running standard relaxation
labelling.  If relation weighting is the secret sauce, this method
should land between plain wvRN and T-Mark — which is exactly what the
``bench_ablation_relation_weighting`` bench checks.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import CollectiveClassifier, label_scores
from repro.baselines.wvrn import WvRNRL
from repro.hin.graph import HIN
from repro.utils.validation import check_positive_int


def estimate_relation_weights(
    hin: HIN, *, prior_strength: float = 4.0
) -> np.ndarray:
    """Per-relation excess homophily estimated from training labels.

    For relation ``k`` with ``s`` same-class and ``d`` different-class
    links among *labeled* node pairs, the homophily estimate is the
    posterior mean ``(s + a·c) / (s + d + a)`` with chance rate
    ``c = 1/q`` and prior strength ``a``; the returned weight is the
    positive part of ``estimate - c`` scaled to [0, 1].  Relations with
    no labeled links get weight 0 (nothing learned, nothing trusted).
    """
    labels = hin.label_matrix
    labeled = labels.any(axis=1)
    chance = 1.0 / hin.n_labels
    i, j, k = hin.tensor.coords
    weights = np.zeros(hin.n_relations)
    for rel in range(hin.n_relations):
        mask = k == rel
        src, dst = j[mask], i[mask]
        both = labeled[src] & labeled[dst]
        if not np.any(both):
            continue
        same = (labels[src[both]] & labels[dst[both]]).any(axis=1)
        s = float(same.sum())
        total = float(both.sum())
        estimate = (s + prior_strength * chance) / (total + prior_strength)
        weights[rel] = max(estimate - chance, 0.0) / (1.0 - chance)
    return weights


class WeightedWvRN(CollectiveClassifier):
    """Relaxation labelling over a homophily-weighted merged graph.

    Parameters
    ----------
    n_iterations, initial_step, decay, content_top_k:
        Forwarded to the underlying :class:`WvRNRL` mechanics.
    prior_strength:
        Shrinkage of the per-relation homophily estimates.
    floor:
        Minimum weight given to every relation (0 drops unhelpful
        relations entirely; a small floor keeps the graph connected).
    """

    def __init__(
        self,
        *,
        n_iterations: int = 50,
        initial_step: float = 1.0,
        decay: float = 0.95,
        content_top_k: int = 10,
        prior_strength: float = 4.0,
        floor: float = 0.02,
    ):
        self.n_iterations = check_positive_int(n_iterations, "n_iterations")
        self._wvrn = WvRNRL(
            n_iterations=n_iterations,
            initial_step=initial_step,
            decay=decay,
            content_top_k=content_top_k,
        )
        if prior_strength < 0:
            raise ValueError(f"prior_strength must be >= 0, got {prior_strength}")
        if not 0 <= floor <= 1:
            raise ValueError(f"floor must be in [0, 1], got {floor}")
        self.prior_strength = float(prior_strength)
        self.floor = float(floor)

    def fit_predict(self, hin: HIN, rng=None) -> np.ndarray:
        """Estimate relation weights, reweight the tensor, run wvRN."""
        label_scores(hin)  # validates supervision exists
        weights = estimate_relation_weights(hin, prior_strength=self.prior_strength)
        weights = np.maximum(weights, self.floor)
        # Rebuild the tensor with per-relation weights baked into the
        # link weights, then reuse the plain wvRN mechanics.
        from repro.tensor.sptensor import SparseTensor3

        i, j, k = hin.tensor.coords
        values = hin.tensor.values * weights[k]
        reweighted = SparseTensor3(i, j, k, values, shape=hin.tensor.shape)
        return self._wvrn.fit_predict(hin.derive(tensor=reweighted), rng=rng)
