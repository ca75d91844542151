"""Experiment harness: regenerate every table and figure of the paper.

* :mod:`~repro.experiments.harness` — method x label-fraction grids with
  repeated stratified trials (the evaluation protocol of section 6).
* :mod:`~repro.experiments.methods` — the paper's method roster with the
  per-dataset hyper-parameters of section 6.5.
* :mod:`~repro.experiments.tables` — ASCII rendering of grids, rankings
  and series.
* :mod:`~repro.experiments.runners` — one runner per table/figure.
* :mod:`~repro.experiments.registry` — id -> runner mapping and the
  public :func:`~repro.experiments.registry.run_experiment`.

Run ``python -m repro.experiments list`` to enumerate experiments and
``python -m repro.experiments run table3`` to regenerate one.
"""

from repro.experiments.harness import (
    GridResult,
    cell_seed_sequence,
    evaluate_method,
    run_grid,
    scores_to_multilabel,
    scores_to_predictions,
    shared_tmark_operators,
)
from repro.experiments.methods import method_roster, tmark_params
from repro.experiments.paper import PAPER_GRIDS, compare_with_paper
from repro.experiments.parallel import (
    WorkerError,
    available_workers,
    graph_fingerprint,
)
from repro.experiments.registry import (
    ExperimentReport,
    experiment_ids,
    get_experiment,
    run_experiment,
)
from repro.experiments.tuning import tune_tmark

__all__ = [
    "GridResult",
    "cell_seed_sequence",
    "evaluate_method",
    "run_grid",
    "scores_to_predictions",
    "scores_to_multilabel",
    "shared_tmark_operators",
    "WorkerError",
    "available_workers",
    "graph_fingerprint",
    "method_roster",
    "tmark_params",
    "PAPER_GRIDS",
    "compare_with_paper",
    "tune_tmark",
    "ExperimentReport",
    "experiment_ids",
    "get_experiment",
    "run_experiment",
]
