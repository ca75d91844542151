"""The paper's primary contribution: the T-Mark algorithm family.

* :class:`~repro.core.tmark.TMark` — Algorithm 1: per-class tensor Markov
  chains with restart, feature-similarity mixing and the ICA-style label
  update (Eq. 10–12).
* :class:`~repro.core.tensorrrcc.TensorRrCc` — the ICDM'17 predecessor
  (T-Mark without the label update), the paper's strongest baseline.
* :class:`~repro.core.multirank.MultiRank` — the unsupervised object /
  relation co-ranking substrate (Ng et al.) that T-Mark extends.
* :mod:`~repro.core.features` — the cosine feature-transition matrix ``W``
  (Eq. 9).
* :mod:`~repro.core.labels` — the restart vector ``l`` (Eq. 11) and its
  iterative update (Eq. 12).
"""

from repro.core.convergence import ChainHistory
from repro.core.features import (
    cosine_similarity_matrix,
    feature_transition_matrix,
    jaccard_similarity_matrix,
    rbf_similarity_matrix,
    topk_cosine_transition_matrix,
)
from repro.core.har import HAR, HARResult
from repro.core.labels import (
    initial_label_vector,
    updated_label_matrix,
    updated_label_vector,
)
from repro.core.multirank import MultiRank, MultiRankResult
from repro.core.persistence import load_result, save_result
from repro.core.tensorrrcc import TensorRrCc
from repro.core.tmark import TMark, TMarkOperators, TMarkResult, build_operators

__all__ = [
    "TMark",
    "TMarkResult",
    "TMarkOperators",
    "build_operators",
    "TensorRrCc",
    "MultiRank",
    "MultiRankResult",
    "HAR",
    "HARResult",
    "ChainHistory",
    "save_result",
    "load_result",
    "cosine_similarity_matrix",
    "rbf_similarity_matrix",
    "jaccard_similarity_matrix",
    "feature_transition_matrix",
    "topk_cosine_transition_matrix",
    "initial_label_vector",
    "updated_label_vector",
    "updated_label_matrix",
]
