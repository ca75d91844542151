"""repro — a reproduction of T-Mark: tensor-based Markov chain collective
classification for heterogeneous information networks (Han et al.,
TKDE / ICDE 2023).

Quickstart
----------
>>> from repro import TMark, make_dblp
>>> hin = make_dblp(seed=0)                      # a calibrated DBLP-like HIN
>>> import numpy as np
>>> from repro.ml import stratified_fraction_split
>>> mask = stratified_fraction_split(hin.y, 0.1, rng=np.random.default_rng(1))
>>> model = TMark(alpha=0.8, gamma=0.6).fit(hin.masked(mask))
>>> predictions = model.predict()                # class index per node
>>> model.result_.top_relations("DB", count=5)   # most important link types
... # doctest: +SKIP

Subpackages
-----------
``repro.core``
    T-Mark, TensorRrCc, MultiRank — the paper's algorithms.
``repro.tensor``
    The sparse 3-way adjacency/transition tensor substrate.
``repro.hin``
    The attributed heterogeneous network container and builder.
``repro.baselines``
    ICA, Hcc, Hcc-ss, wvRN+RL, EMR, Highway Network, Graph Inception.
``repro.ml``
    From-scratch classifiers, metrics, splits and preprocessing.
``repro.datasets``
    Calibrated synthetic DBLP / Movies / NUS / ACM generators.
``repro.experiments``
    Runners regenerating every table and figure of the paper.
"""

from repro.baselines import EMR, GraphInception, Hcc, HccSS, HighwayNetwork, ICA, WvRNRL
from repro.core import HAR, MultiRank, TensorRrCc, TMark, TMarkResult
from repro.datasets import (
    make_acm,
    make_dblp,
    make_movies,
    make_nus,
    make_synthetic_hin,
    make_worked_example,
)
from repro.errors import (
    DatasetError,
    NotFittedError,
    ReproError,
    ShapeError,
    ValidationError,
)
from repro.hin import (
    HIN,
    HINBuilder,
    hin_summary,
    load_hin,
    load_hin_from_files,
    save_hin,
)
from repro.tensor import SparseTensor3

__version__ = "1.0.0"

__all__ = [
    "TMark",
    "TMarkResult",
    "TensorRrCc",
    "MultiRank",
    "HAR",
    "ICA",
    "Hcc",
    "HccSS",
    "WvRNRL",
    "EMR",
    "HighwayNetwork",
    "GraphInception",
    "HIN",
    "HINBuilder",
    "SparseTensor3",
    "hin_summary",
    "save_hin",
    "load_hin",
    "load_hin_from_files",
    "make_dblp",
    "make_movies",
    "make_nus",
    "make_acm",
    "make_synthetic_hin",
    "make_worked_example",
    "ReproError",
    "ShapeError",
    "ValidationError",
    "NotFittedError",
    "DatasetError",
    "__version__",
]
